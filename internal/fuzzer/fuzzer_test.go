package fuzzer

import (
	"fmt"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/igoodlock"
	"dlfuzz/internal/lockset"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
)

// fig1 is the paper's Figure 1 program. The first thread runs long
// methods before taking locks o1,o2 in order; the second takes o2,o1
// immediately. A plain random schedule almost never deadlocks; the
// active checker should deadlock nearly always.
func fig1(c *sched.Ctx) {
	o1 := c.New("Object", "Fig1:22")
	o2 := c.New("Object", "Fig1:23")
	body := func(l1, l2 *object.Obj, delay int) func(*sched.Ctx) {
		return func(c *sched.Ctx) {
			c.Work(delay, "Fig1:10")
			c.Sync(l1, "Fig1:15", func() {
				c.Sync(l2, "Fig1:16", func() {})
			})
		}
	}
	t1 := c.Spawn("T1", nil, "Fig1:25", body(o1, o2, 60))
	t2 := c.Spawn("T2", nil, "Fig1:26", body(o2, o1, 0))
	c.Join(t1, "Fig1:28")
	c.Join(t2, "Fig1:28")
}

// phase1 records the program's dependency relation from one completed
// random execution and runs iGoodlock. Seeds are tried in order until a
// run completes (an observation run that happens to deadlock has already
// found a deadlock and is useless as a Phase I baseline here).
func phase1(t testing.TB, prog func(*sched.Ctx), cfg igoodlock.Config) []*igoodlock.Cycle {
	t.Helper()
	for seed := int64(42); seed < 92; seed++ {
		rec := lockset.NewRecorder()
		s := sched.New(sched.Options{Seed: seed, Observers: []sched.Observer{rec}})
		if s.Run(prog).Outcome == sched.Completed {
			return igoodlock.Find(rec.Deps(), cfg)
		}
	}
	t.Fatal("no seed produced a completed phase 1 run")
	return nil
}

func TestPipelineFig1(t *testing.T) {
	cycles := phase1(t, fig1, igoodlock.DefaultConfig())
	if len(cycles) != 1 {
		t.Fatalf("iGoodlock found %d cycles, want 1: %v", len(cycles), cycles)
	}
	cyc := cycles[0]
	if cyc.Len() != 2 {
		t.Fatalf("cycle length %d, want 2", cyc.Len())
	}
	for _, comp := range cyc.Components {
		want := event.Context{"Fig1:15", "Fig1:16"}
		if !comp.Context.Equal(want) {
			t.Errorf("component context %v, want %v", comp.Context, want)
		}
	}
	// The two threads and the two locks must have distinct abstractions
	// under execution indexing (they are allocated at distinct sites).
	if cyc.Components[0].ThreadAbs == cyc.Components[1].ThreadAbs {
		t.Errorf("thread abstractions collide: %s", cyc.Components[0].ThreadAbs)
	}
	if cyc.Components[0].LockAbs == cyc.Components[1].LockAbs {
		t.Errorf("lock abstractions collide: %s", cyc.Components[0].LockAbs)
	}

	// Phase II: the active checker should reproduce the deadlock on
	// (nearly) every seed.
	repro := 0
	for seed := int64(0); seed < 20; seed++ {
		r := Run(fig1, cyc, DefaultConfig(), seed, 0)
		if r.Reproduced {
			repro++
		}
	}
	if repro < 19 {
		t.Errorf("active checker reproduced %d/20, want >= 19", repro)
	}

	// Baseline: plain random scheduling should rarely deadlock.
	base := 0
	for seed := int64(0); seed < 20; seed++ {
		s := sched.New(sched.Options{Seed: seed})
		if s.Run(fig1).Outcome == sched.Deadlock {
			base++
		}
	}
	if base > 4 {
		t.Errorf("random baseline deadlocked %d/20; the workload skew is too weak", base)
	}
}

// fig1Third adds the paper's third thread (o2, o3) which shares lock o2
// and the same code path. Without abstractions the checker can pause the
// wrong thread; with exec-indexing it must still reproduce ~always.
func fig1Third(c *sched.Ctx) {
	o1 := c.New("Object", "Fig1:22")
	o2 := c.New("Object", "Fig1:23")
	o3 := c.New("Object", "Fig1:24")
	body := func(l1, l2 *object.Obj, delay int) func(*sched.Ctx) {
		return func(c *sched.Ctx) {
			c.Work(delay, "Fig1:10")
			c.Sync(l1, "Fig1:15", func() {
				c.Sync(l2, "Fig1:16", func() {})
			})
		}
	}
	t1 := c.Spawn("T1", nil, "Fig1:25", body(o1, o2, 60))
	t2 := c.Spawn("T2", nil, "Fig1:26", body(o2, o1, 0))
	t3 := c.Spawn("T3", nil, "Fig1:27", body(o2, o3, 0))
	c.Join(t1, "Fig1:28")
	c.Join(t2, "Fig1:28")
	c.Join(t3, "Fig1:28")
}

func TestAbstractionAvoidsWrongPause(t *testing.T) {
	cycles := phase1(t, fig1Third, igoodlock.DefaultConfig())
	if len(cycles) != 1 {
		t.Fatalf("iGoodlock found %d cycles, want 1", len(cycles))
	}
	cyc := cycles[0]

	withAbs, withoutAbs := 0, 0
	trivial := DefaultConfig()
	trivial.Abstraction = object.Trivial
	// The trivial variant needs the trivial cycle report (same contexts,
	// trivial abstractions) to pause against.
	trivCfg := igoodlock.DefaultConfig()
	trivCfg.Abstraction = object.Trivial
	trivCycles := phase1(t, fig1Third, trivCfg)
	if len(trivCycles) != 1 {
		t.Fatalf("trivial iGoodlock found %d cycles, want 1", len(trivCycles))
	}
	const n = 40
	for seed := int64(0); seed < n; seed++ {
		if Run(fig1Third, cyc, DefaultConfig(), seed, 0).Reproduced {
			withAbs++
		}
		if Run(fig1Third, trivCycles[0], trivial, seed, 0).Reproduced {
			withoutAbs++
		}
	}
	if withAbs < n-2 {
		t.Errorf("exec-index variant reproduced %d/%d, want nearly all", withAbs, n)
	}
	// The paper's Section 3 analysis: without abstraction the checker
	// misses the deadlock roughly a quarter of the time. Require a
	// visible gap rather than an exact constant.
	if withoutAbs >= withAbs {
		t.Errorf("trivial abstraction (%d/%d) should reproduce less often than exec-index (%d/%d)",
			withoutAbs, n, withAbs, n)
	}
}

func TestMatchesCycleRejectsDifferentDeadlock(t *testing.T) {
	cycles := phase1(t, fig1, igoodlock.DefaultConfig())
	cyc := cycles[0]
	r := Run(fig1, cyc, DefaultConfig(), 3, 0)
	if !r.Reproduced {
		t.Skip("seed did not reproduce; covered by TestPipelineFig1")
	}
	// Mutate the target cycle's contexts: the same deadlock should no
	// longer count as a reproduction under context matching.
	mutated := &igoodlock.Cycle{Components: make([]igoodlock.Component, cyc.Len())}
	copy(mutated.Components, cyc.Components)
	mutated.Components[0].Context = event.Context{"elsewhere:1"}
	if MatchesCycle(r.Result.Deadlock, mutated, DefaultConfig()) {
		t.Error("mutated cycle should not match the reproduced deadlock")
	}
	cfg := DefaultConfig()
	cfg.UseContext = false
	if !MatchesCycle(r.Result.Deadlock, mutated, cfg) {
		t.Error("without context matching, abstractions alone should match")
	}
}

func TestThrashingCountedWhenAllPaused(t *testing.T) {
	// Section 4's example: thread1 takes l1 then l2; thread2 takes l1
	// (alone) first, then l2 then l1. Pausing thread1 at its inner
	// acquire while thread2 wants l1 blocks thread2 -> thrash. With the
	// yield optimization the checker should avoid most thrashing and
	// reproduce deterministically.
	prog := func(c *sched.Ctx) {
		l1 := c.New("Object", "S4:l1")
		l2 := c.New("Object", "S4:l2")
		t1 := c.Spawn("thread1", nil, "S4:t1", func(c *sched.Ctx) {
			c.Sync(l1, "S4:2", func() {
				c.Sync(l2, "S4:3", func() {})
			})
		})
		t2 := c.Spawn("thread2", nil, "S4:t2", func(c *sched.Ctx) {
			c.Sync(l1, "S4:9", func() {})
			c.Sync(l2, "S4:12", func() {
				c.Sync(l1, "S4:13", func() {})
			})
		})
		c.Join(t1, "S4:j")
		c.Join(t2, "S4:j")
	}
	cycles := phase1(t, prog, igoodlock.DefaultConfig())
	if len(cycles) != 1 {
		t.Fatalf("found %d cycles, want 1", len(cycles))
	}
	const n = 30
	yesYield, noYield := 0, 0
	var yesThrash, noThrash int
	cfgNo := DefaultConfig()
	cfgNo.YieldOpt = false
	for seed := int64(0); seed < n; seed++ {
		ry := Run(prog, cycles[0], DefaultConfig(), seed, 0)
		rn := Run(prog, cycles[0], cfgNo, seed, 0)
		if ry.Reproduced {
			yesYield++
		}
		if rn.Reproduced {
			noYield++
		}
		yesThrash += ry.Stats.Thrashes
		noThrash += rn.Stats.Thrashes
	}
	if yesYield < n-1 {
		t.Errorf("with yields reproduced %d/%d, want nearly all", yesYield, n)
	}
	if noThrash <= yesThrash {
		t.Errorf("disabling yields should thrash more: with=%d without=%d", yesThrash, noThrash)
	}
	if noYield > yesYield {
		t.Errorf("yield opt should not hurt: with=%d without=%d", yesYield, noYield)
	}
}

func TestNoisePolicyFindsFewerDeadlocks(t *testing.T) {
	// On the timing-skewed Figure 1 program, targeted pausing must beat
	// noise injection decisively (the paper's ConTest comparison).
	cycles := phase1(t, fig1, igoodlock.DefaultConfig())
	df, noise := 0, 0
	const n = 30
	for seed := int64(0); seed < n; seed++ {
		if Run(fig1, cycles[0], DefaultConfig(), seed, 0).Result.Outcome == sched.Deadlock {
			df++
		}
		pol := NoisePolicy{P: 0.7}
		if sched.New(sched.Options{Seed: seed, Policy: pol}).Run(fig1).Outcome == sched.Deadlock {
			noise++
		}
	}
	if df < n-1 {
		t.Errorf("DF deadlocked %d/%d", df, n)
	}
	if noise >= df {
		t.Errorf("noise (%d/%d) should find fewer deadlocks than DF (%d/%d)", noise, n, df, n)
	}
}

func TestLivelockMonitorEvictsStalePauses(t *testing.T) {
	// One thread matches the cycle and pauses; its partner never shows
	// up (it takes a different branch). Without the livelock monitor
	// the paused thread would sit until the step limit; with a small
	// PauseTimeout the run completes.
	prog := func(c *sched.Ctx) {
		l1 := c.New("Object", "lv:1")
		l2 := c.New("Object", "lv:2")
		t1 := c.Spawn("pauser", nil, "lv:3", func(c *sched.Ctx) {
			c.Sync(l1, "lv:4", func() {
				c.Sync(l2, "lv:5", func() {})
			})
		})
		spin := c.Spawn("spinner", nil, "lv:6", func(c *sched.Ctx) {
			c.Work(400, "lv:7")
		})
		c.Join(t1, "lv:8")
		c.Join(spin, "lv:9")
	}
	// Target cycle taken from a two-sided variant of the program, so
	// the pause point exists but the deadlock cannot complete.
	twoSided := func(c *sched.Ctx) {
		l1 := c.New("Object", "lv:1")
		l2 := c.New("Object", "lv:2")
		t1 := c.Spawn("pauser", nil, "lv:3", func(c *sched.Ctx) {
			c.Sync(l1, "lv:4", func() {
				c.Sync(l2, "lv:5", func() {})
			})
		})
		t2 := c.Spawn("other", nil, "lv:6", func(c *sched.Ctx) {
			c.Work(30, "lv:7")
			c.Sync(l2, "lv:10", func() {
				c.Sync(l1, "lv:11", func() {})
			})
		})
		c.Join(t1, "lv:8")
		c.Join(t2, "lv:9")
	}
	cycles := phase1(t, twoSided, igoodlock.DefaultConfig())
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v", cycles)
	}
	cfg := DefaultConfig()
	cfg.PauseTimeout = 50
	evicted := 0
	for seed := int64(0); seed < 10; seed++ {
		pol := New(cycles[0], cfg)
		s := sched.New(sched.Options{Seed: seed, Policy: pol, MaxSteps: 5000})
		res := s.Run(prog)
		if res.Outcome != sched.Completed {
			t.Fatalf("seed %d: outcome %v (livelock monitor failed)", seed, res.Outcome)
		}
		evicted += pol.Stats().Evictions
	}
	if evicted == 0 {
		t.Error("expected at least one timeout eviction across seeds")
	}
}

// TestFourPhilosophersCycle: a length-4 cycle found by iGoodlock's
// fourth iteration and confirmed by the checker.
func TestFourPhilosophersCycle(t *testing.T) {
	prog := func(c *sched.Ctx) {
		const n = 4
		forks := make([]*object.Obj, n)
		for i := range forks {
			forks[i] = c.New("Fork", event.Loc(fmt.Sprintf("ph4:fork%d", i)))
		}
		var ts []*sched.Thread
		for i := 0; i < n; i++ {
			left, right := forks[i], forks[(i+1)%n]
			ts = append(ts, c.Spawn(fmt.Sprintf("p%d", i), nil,
				event.Loc(fmt.Sprintf("ph4:spawn%d", i)), func(c *sched.Ctx) {
					c.Work(9-2*i, "ph4:think")
					c.Sync(left, "ph4:left", func() {
						c.Sync(right, "ph4:right", func() {})
					})
				}))
		}
		for _, th := range ts {
			c.Join(th, "ph4:join")
		}
	}
	cycles := phase1(t, prog, igoodlock.DefaultConfig())
	if len(cycles) != 1 || cycles[0].Len() != 4 {
		t.Fatalf("cycles = %v", cycles)
	}
	repro := 0
	for seed := int64(0); seed < 20; seed++ {
		if Run(prog, cycles[0], DefaultConfig(), seed, 0).Reproduced {
			repro++
		}
	}
	if repro < 16 {
		t.Errorf("length-4 cycle reproduced %d/20", repro)
	}
}

// TestMatchesCycleLengthMismatch: a deadlock of different length never
// matches.
func TestMatchesCycleLengthMismatch(t *testing.T) {
	cycles := phase1(t, fig1, igoodlock.DefaultConfig())
	r := Run(fig1, cycles[0], DefaultConfig(), 1, 0)
	if r.Result.Deadlock == nil {
		t.Skip("seed did not deadlock")
	}
	longer := &igoodlock.Cycle{Components: append(append([]igoodlock.Component(nil),
		cycles[0].Components...), cycles[0].Components[0])}
	if MatchesCycle(r.Result.Deadlock, longer, DefaultConfig()) {
		t.Error("length mismatch must not match")
	}
	if MatchesCycle(nil, cycles[0], DefaultConfig()) {
		t.Error("nil deadlock must not match")
	}
}
