package fuzzer

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dlfuzz/internal/event"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
)

// corpusProg loads a committed corpus program as a VM-backed body.
func corpusProg(tb testing.TB, name string) func(*sched.Ctx) {
	tb.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", name))
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := lang.Parse(name, string(src))
	if err != nil {
		tb.Fatal(err)
	}
	return lang.NewInterp(prog, io.Discard).Main()
}

// refCheck wraps the policy under test and, before every decision,
// checks its id-based cycle matching against a string reference: render
// abs(t) and abs(l) with Of and compare them with the cycle's keys, with
// the yield budget kept per (thread, site) in a map fed by the policy's
// own OnYield hooks.
type refCheck struct {
	*Policy
	t      *testing.T
	yields map[refYield]int
	// matched and yielded count the true verdicts checked.
	matched, yielded int
}

type refYield struct {
	tid event.TID
	loc event.Loc
}

func (r *refCheck) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	for _, tid := range s.AliveTIDs() {
		req := s.PendingRef(tid)
		if req.Kind != event.KindAcquire {
			continue
		}
		r.grow(tid)
		got, want := r.matches(s, tid, req), r.refMatches(s, tid, req)
		if got != want {
			r.t.Fatalf("step %d %v at %s: matches = %v, reference %v", s.Steps(), tid, req.Loc, got, want)
		}
		if got {
			r.matched++
		}
		got, want = r.yieldSlot(s, tid, req) >= 0, r.refShouldYield(s, tid, req)
		if got != want {
			r.t.Fatalf("step %d %v at %s: yields = %v, reference %v", s.Steps(), tid, req.Loc, got, want)
		}
		if got {
			r.yielded++
		}
	}
	return r.Policy.Next(s, enabled)
}

func (r *refCheck) refMatches(s *sched.Scheduler, tid event.TID, req *sched.Request) bool {
	absT := r.cfg.Abstraction.Of(s.Thread(tid).Obj(), r.cfg.K)
	absL := r.cfg.Abstraction.Of(req.Obj, r.cfg.K)
	for _, comp := range r.cycle.Components {
		if comp.ThreadAbs != absT || comp.LockAbs != absL {
			continue
		}
		if !r.cfg.UseContext {
			return true
		}
		ctx := s.Context(tid)
		if len(ctx)+1 == len(comp.Context) && comp.Context[len(ctx)] == req.Loc &&
			event.Context(comp.Context[:len(ctx)]).Equal(ctx) {
			return true
		}
	}
	return false
}

func (r *refCheck) refShouldYield(s *sched.Scheduler, tid event.TID, req *sched.Request) bool {
	if r.yields[refYield{tid, req.Loc}] >= r.cfg.YieldBudget || len(s.LockSet(tid)) != 0 {
		return false
	}
	absT := r.cfg.Abstraction.Of(s.Thread(tid).Obj(), r.cfg.K)
	for _, comp := range r.cycle.Components {
		if comp.ThreadAbs == absT && len(comp.Context) > 0 && comp.Context[0] == req.Loc {
			return true
		}
	}
	return false
}

func (r *refCheck) OnPause(event.TID, int, event.Loc) {}
func (r *refCheck) OnThrash(event.TID, int)           {}
func (r *refCheck) OnEvict(event.TID, int)            {}
func (r *refCheck) OnYield(t event.TID, _ int, loc event.Loc) {
	r.yields[refYield{t, loc}]++
}

// TestPolicyMatchesStringReference runs corpus programs under the
// checker with every abstraction, with and without context, at the
// default and at a one-yield budget, against each program's first
// candidate cycles, and requires the policy's interned matching to
// agree with the string reference for every waiting acquire at every
// decision.
func TestPolicyMatchesStringReference(t *testing.T) {
	progs := []string{"gen-000005.clf", "gen-000027.clf", "gen-000050.clf"}
	r := &refCheck{Policy: &Policy{}, t: t}
	pool := sched.NewPool()
	runs := 0
	for _, name := range progs {
		prog := corpusProg(t, name)
		for _, abs := range []object.Abstraction{object.ExecIndex, object.KObject, object.Trivial} {
			cycles := phase1(t, prog, igoodlock.Config{Abstraction: abs, K: 10})
			if len(cycles) > 3 {
				cycles = cycles[:3]
			}
			for _, cyc := range cycles {
				for _, useCtx := range []bool{true, false} {
					for _, budget := range []int{0, 1} {
						cfg := Config{Abstraction: abs, K: 10, UseContext: useCtx, YieldOpt: true, YieldBudget: budget}
						for seed := int64(0); seed < 3; seed++ {
							r.Reset(cyc, cfg)
							r.SetHooks(r)
							r.yields = map[refYield]int{}
							pool.Run(sched.Options{Seed: seed, Policy: r, MaxSteps: 20_000}, prog)
							runs++
						}
					}
				}
			}
		}
	}
	if r.matched == 0 || r.yielded == 0 {
		t.Fatalf("%d runs checked %d matches and %d yields; want both nonzero", runs, r.matched, r.yielded)
	}
	t.Logf("%d runs, %d matches and %d yields agreed with the reference", runs, r.matched, r.yielded)
}

// policyTarget is the steady-state policy workload: a corpus program
// and its first candidate cycle under the default variant.
func policyTarget(tb testing.TB) (func(*sched.Ctx), *igoodlock.Cycle, Config) {
	prog := corpusProg(tb, "gen-000005.clf")
	cycles := phase1(tb, prog, igoodlock.DefaultConfig())
	if len(cycles) == 0 {
		tb.Fatal("no candidate cycles")
	}
	return prog, cycles[0], DefaultConfig()
}

// meteredPolicy counts a Policy's decisions and, when timed, the wall
// time inside Next; when counting allocations, the heap objects
// allocated inside Next.
type meteredPolicy struct {
	*Policy
	timed, counted bool
	calls          int
	ns             time.Duration
	allocs         uint64
	ms             runtime.MemStats
}

func (m *meteredPolicy) Next(s *sched.Scheduler, enabled []event.TID) event.TID {
	m.calls++
	switch {
	case m.timed:
		start := time.Now()
		tid := m.Policy.Next(s, enabled)
		m.ns += time.Since(start)
		return tid
	case m.counted:
		runtime.ReadMemStats(&m.ms)
		before := m.ms.Mallocs
		tid := m.Policy.Next(s, enabled)
		runtime.ReadMemStats(&m.ms)
		m.allocs += m.ms.Mallocs - before
		return tid
	}
	return m.Policy.Next(s, enabled)
}

// runSeeds drives r's pooled shells through the given seeds with m as
// the policy, the way Runner.Run does.
func runSeeds(r *Runner, m *meteredPolicy, prog func(*sched.Ctx), cyc *igoodlock.Cycle, cfg Config, from, to int64) {
	for seed := from; seed < to; seed++ {
		r.pol.Reset(cyc, cfg)
		r.pool.Run(sched.Options{Seed: seed, Policy: m}, prog)
	}
}

// TestPolicyNextAllocFree pins the decision loop allocation-free at
// steady state: once a pooled Runner has served the program a few
// times, no Next call allocates.
func TestPolicyNextAllocFree(t *testing.T) {
	prog, cyc, cfg := policyTarget(t)
	r := NewRunner()
	m := &meteredPolicy{Policy: r.pol}
	runSeeds(r, m, prog, cyc, cfg, 0, 5)
	m.counted, m.calls = true, 0
	runSeeds(r, m, prog, cyc, cfg, 5, 25)
	if m.calls == 0 || m.allocs != 0 {
		t.Fatalf("%d allocations over %d steady-state decisions, want 0", m.allocs, m.calls)
	}
}

// BenchmarkPolicyNext times the fuzzer policy layer at steady state.
// One op is one scheduling decision of whole pooled Runner runs over a
// corpus program, so ns/op and allocs/op cover the VM, the scheduler
// and the policy together (the last run may overshoot b.N by part of a
// run); policy-ns/decision is the share spent inside Policy.Next, two
// clock reads included.
func BenchmarkPolicyNext(b *testing.B) {
	prog, cyc, cfg := policyTarget(b)
	r := NewRunner()
	m := &meteredPolicy{Policy: r.pol}
	runSeeds(r, m, prog, cyc, cfg, 0, 5)
	m.timed, m.calls = true, 0
	b.ReportAllocs()
	b.ResetTimer()
	for seed := int64(5); m.calls < b.N; seed++ {
		runSeeds(r, m, prog, cyc, cfg, seed, seed+1)
	}
	b.StopTimer()
	b.ReportMetric(float64(m.ns.Nanoseconds())/float64(m.calls), "policy-ns/decision")
}
