package sched

import "runtime"

// Pool recycles Scheduler and Thread shells across the seeded runs of a
// campaign worker, so a 100-run campaign allocates scheduler state once
// per worker instead of once per seed. Recycled shells are reset to the
// exact observable state of fresh ones — re-seeded RNG stream, zeroed
// counters, cleared (capacity-retaining) maps and stacks — so pooled
// results and event streams are byte-identical to New(opts).Run(main).
//
// Pooled thread shells also keep their coroutine: it idles between
// runs (see Thread.startCoro), so re-spawning a recycled thread skips
// goroutine creation and keeps its grown stack. A runtime cleanup stops
// the free shells' coroutines once the pool itself becomes unreachable,
// so dropped pools leak nothing; a scheduler taken with Get must go
// back with Put for its shells to be among them.
//
// A Pool is not safe for concurrent use; give each worker goroutine its
// own.
type Pool struct {
	scheds []*Scheduler
	*shells
}

// shells holds the pool's thread-shell free list apart from the pool, so
// the cleanup can reach the shells without keeping the pool alive.
type shells struct {
	threads []*Thread
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	p := &Pool{shells: &shells{}}
	runtime.AddCleanup(p, func(sh *shells) {
		for _, t := range sh.threads {
			t.stop()
		}
	}, p.shells)
	return p
}

// Run executes main under a pooled scheduler and recycles the shell. If
// main panics, the panic propagates and the shell is abandoned instead
// of recycled; its threads' coroutines were stopped by Run.
func (p *Pool) Run(opts Options, main func(*Ctx)) *Result {
	s := p.Get(opts)
	res := s.Run(main)
	p.Put(s)
	return res
}

// Get returns a scheduler (recycled or fresh) configured by opts and
// bound to the pool for thread-shell reuse. Use Get/Put directly when
// the scheduler must stay inspectable after Run; otherwise use Pool.Run.
func (p *Pool) Get(opts Options) *Scheduler {
	var s *Scheduler
	if n := len(p.scheds); n > 0 {
		s = p.scheds[n-1]
		p.scheds[n-1] = nil
		p.scheds = p.scheds[:n-1]
	} else {
		s = &Scheduler{}
	}
	s.pool = p
	s.init(opts)
	return s
}

// Put recycles a scheduler whose Run has returned. The shell keeps its
// RNG, scratch buffers, map buckets and lock-state free list; everything
// observable is reset.
func (p *Pool) Put(s *Scheduler) {
	for i, t := range s.threads {
		t.recycle()
		p.threads = append(p.threads, t)
		s.threads[i] = nil
	}
	s.threads = s.threads[:0]
	for i := range s.alive {
		s.alive[i] = nil
	}
	s.alive = s.alive[:0]
	s.enabledValid = false
	for i, ls := range s.locks {
		if ls == nil {
			continue
		}
		ls.recycle()
		s.freeLocks = append(s.freeLocks, ls)
		s.locks[i] = nil
	}
	s.locks = s.locks[:0]
	clear(s.latches)
	s.alloc.Reset()
	s.opts = Options{}
	s.policy = nil
	s.steps = 0
	s.seq = 0
	s.acquires = 0
	s.aborted = 0
	s.abortPanics = 0
	s.deadlock = nil
	s.blocked = nil
	s.panicVal = nil
	p.scheds = append(p.scheds, s)
}

// takeThread pops a recycled thread shell, or returns nil when the free
// list is empty.
func (p *Pool) takeThread() *Thread {
	n := len(p.threads)
	if n == 0 {
		return nil
	}
	t := p.threads[n-1]
	p.threads[n-1] = nil
	p.threads = p.threads[:n-1]
	return t
}
