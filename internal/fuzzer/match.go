package fuzzer

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/sched"
)

// DeadlockKey renders a confirmed deadlock as a canonical,
// rotation-independent key under cfg's abstraction: the sorted multiset
// of "abs(thread)/abs(lock)[/context]" triples joined by "~". Two
// deadlocks have equal keys iff MatchesCycle would consider them the
// same cycle; witness traces persist the key so a replay can assert it
// reproduced the identical deadlock.
func DeadlockKey(dl *sched.DeadlockInfo, cfg Config) string {
	if dl == nil {
		return ""
	}
	if cfg.K == 0 {
		cfg.K = 10
	}
	parts := make([]string, 0, len(dl.Edges))
	for _, e := range dl.Edges {
		key := fmt.Sprintf("%s/%s", cfg.Abstraction.Of(e.ThreadObj, cfg.K), cfg.Abstraction.Of(e.Want, cfg.K))
		if cfg.UseContext {
			key += "/" + e.Context.Key()
		}
		parts = append(parts, key)
	}
	sort.Strings(parts)
	return strings.Join(parts, "~")
}

// CycleKey is DeadlockKey's counterpart for a potential cycle: the same
// canonical triple multiset, built from iGoodlock's component
// abstractions instead of a live deadlock's edges.
func CycleKey(cycle *igoodlock.Cycle, cfg Config) string {
	parts := make([]string, 0, len(cycle.Components))
	for _, c := range cycle.Components {
		key := fmt.Sprintf("%s/%s", c.ThreadAbs, c.LockAbs)
		if cfg.UseContext {
			key += "/" + c.Context.Key()
		}
		parts = append(parts, key)
	}
	sort.Strings(parts)
	return strings.Join(parts, "~")
}

// MatchesCycle reports whether a confirmed deadlock corresponds to the
// target potential cycle: the same multiset of (abs(thread), abs(lock),
// context) triples, independent of rotation. The paper uses this
// distinction in Section 5.2 — on the Maps benchmarks DeadlockFuzzer
// sometimes creates a real deadlock *different* from the cycle it was
// given, which counts as a deadlock found but not as a reproduction.
func MatchesCycle(dl *sched.DeadlockInfo, cycle *igoodlock.Cycle, cfg Config) bool {
	if dl == nil || len(dl.Edges) != len(cycle.Components) {
		return false
	}
	return DeadlockKey(dl, cfg) == CycleKey(cycle, cfg)
}

// RunResult is the outcome of one Phase II execution.
type RunResult struct {
	// Result is the scheduler's verdict.
	Result *sched.Result
	// Reproduced reports whether the confirmed deadlock matches the
	// target cycle (always false when no deadlock was confirmed).
	Reproduced bool
	// Stats are the policy's counters.
	Stats Stats
}

// Run executes prog once under the active random checker with the given
// target cycle, variant configuration and seed.
func Run(prog func(*sched.Ctx), cycle *igoodlock.Cycle, cfg Config, seed int64, maxSteps int) *RunResult {
	pol := New(cycle, cfg)
	s := sched.New(sched.Options{Seed: seed, Policy: pol, MaxSteps: maxSteps, UnbatchedWork: cfg.UnbatchedWork})
	res := s.Run(prog)
	return &RunResult{
		Result:     res,
		Reproduced: res.Outcome == sched.Deadlock && MatchesCycle(res.Deadlock, cycle, cfg),
		Stats:      pol.Stats(),
	}
}

// Runner amortizes Phase II state over many executions: one scheduler
// pool and one policy shell serve every seed, so a campaign worker
// allocates its checker state once instead of once per run. Results are
// byte-identical to the package-level Run. A Runner is not safe for
// concurrent use; give each campaign worker its own.
type Runner struct {
	pool *sched.Pool
	pol  *Policy

	// Cycle and deadlock keys are pure functions of their inputs, so the
	// Runner caches them: cycle keys per (cycle pointer, config) — the
	// same few candidates are matched every run of a campaign — and the
	// last deadlock's key, which a multi-cycle campaign compares against
	// every candidate.
	keys    map[*igoodlock.Cycle]string
	keysCfg Config
	lastDL  *sched.DeadlockInfo
	// Deadlock keys render into reused buffers: partBuf holds every
	// edge's triple back to back (partEnds the boundaries), parts the
	// per-edge views for sorting, keyBuf the joined key. A confirm
	// campaign renders one key per deadlocked run, so this is the
	// campaign hot path's last per-run allocation site.
	partBuf  []byte
	partEnds []int
	parts    [][]byte
	keyBuf   []byte
}

// NewRunner returns a Runner with an empty pool.
func NewRunner() *Runner {
	return &Runner{pool: sched.NewPool(), pol: &Policy{}}
}

// Run is the pooled equivalent of the package-level Run.
func (r *Runner) Run(prog func(*sched.Ctx), cycle *igoodlock.Cycle, cfg Config, seed int64, maxSteps int) *RunResult {
	r.pol.Reset(cycle, cfg)
	res := r.pool.Run(sched.Options{Seed: seed, Policy: r.pol, MaxSteps: maxSteps, UnbatchedWork: cfg.UnbatchedWork}, prog)
	return &RunResult{
		Result:     res,
		Reproduced: res.Outcome == sched.Deadlock && r.MatchesCycle(res.Deadlock, cycle, cfg),
		Stats:      r.pol.Stats(),
	}
}

// MatchesCycle is the package-level MatchesCycle with the Runner's key
// caches: identical verdicts, but each cycle's key is rendered once per
// campaign and each deadlock's once per run.
func (r *Runner) MatchesCycle(dl *sched.DeadlockInfo, cycle *igoodlock.Cycle, cfg Config) bool {
	if dl == nil || len(dl.Edges) != len(cycle.Components) {
		return false
	}
	if cfg.K == 0 {
		cfg.K = 10
	}
	// string(b) == s compares without converting; the render stays in
	// the Runner's buffers.
	return string(r.deadlockKey(dl, cfg)) == r.cycleKey(cycle, cfg)
}

// cycleKey memoizes CycleKey per cycle pointer, flushing when the config
// changes (the key depends on UseContext).
func (r *Runner) cycleKey(cycle *igoodlock.Cycle, cfg Config) string {
	if r.keys == nil {
		r.keys = make(map[*igoodlock.Cycle]string)
		r.keysCfg = cfg
	} else if r.keysCfg != cfg {
		clear(r.keys)
		r.keysCfg = cfg
	}
	k, ok := r.keys[cycle]
	if !ok {
		k = CycleKey(cycle, cfg)
		r.keys[cycle] = k
	}
	return k
}

// deadlockKey memoizes the rendered key for the most recent deadlock,
// which covers the match-against-every-candidate loop of a multi-cycle
// campaign. lastDL retains the DeadlockInfo, so its address cannot be
// recycled while the cache entry lives. The returned bytes belong to
// the Runner and are valid until the next render.
func (r *Runner) deadlockKey(dl *sched.DeadlockInfo, cfg Config) []byte {
	if dl == r.lastDL && cfg == r.keysCfg {
		return r.keyBuf
	}
	r.lastDL = dl
	r.renderDeadlockKey(dl, cfg)
	return r.keyBuf
}

// renderDeadlockKey is DeadlockKey rendered into the Runner's reused
// buffers: identical bytes in r.keyBuf, with no steady-state
// allocations.
func (r *Runner) renderDeadlockKey(dl *sched.DeadlockInfo, cfg Config) {
	r.keyBuf = r.keyBuf[:0]
	if dl == nil {
		return
	}
	// Render every part contiguously first: appends may regrow partBuf,
	// so the sortable views are only derived once the buffer is final.
	r.partBuf, r.partEnds = r.partBuf[:0], r.partEnds[:0]
	for _, e := range dl.Edges {
		r.partBuf = cfg.Abstraction.AppendOf(r.partBuf, e.ThreadObj, cfg.K)
		r.partBuf = append(r.partBuf, '/')
		r.partBuf = cfg.Abstraction.AppendOf(r.partBuf, e.Want, cfg.K)
		if cfg.UseContext {
			r.partBuf = append(r.partBuf, '/')
			r.partBuf = e.Context.AppendKey(r.partBuf)
		}
		r.partEnds = append(r.partEnds, len(r.partBuf))
	}
	r.parts = r.parts[:0]
	start := 0
	for _, end := range r.partEnds {
		r.parts = append(r.parts, r.partBuf[start:end])
		start = end
	}
	// Insertion sort: cycles have a handful of edges, and equal parts
	// are interchangeable, so sort.Strings' ordering is reproduced
	// exactly without its interface allocation.
	for i := 1; i < len(r.parts); i++ {
		for j := i; j > 0 && bytes.Compare(r.parts[j], r.parts[j-1]) < 0; j-- {
			r.parts[j], r.parts[j-1] = r.parts[j-1], r.parts[j]
		}
	}
	for i, p := range r.parts {
		if i > 0 {
			r.keyBuf = append(r.keyBuf, '~')
		}
		r.keyBuf = append(r.keyBuf, p...)
	}
}
