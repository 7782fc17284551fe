package sched

// AbortPanics reports how many abortPanics s raised during its last run,
// counted in park, the only raise site.
func AbortPanics(s *Scheduler) int { return s.abortPanics }
