package sched

import (
	"runtime"
	"testing"
	"time"

	"dlfuzz/internal/event"
)

// stuckOnLatch spawns a worker that awaits a latch nobody signals, then
// lets main finish with end(c): the worker is still parked when the run
// ends, so teardown has to abort it.
func stuckOnLatch(end func(c *Ctx)) func(*Ctx) {
	return func(c *Ctx) {
		l := c.NewLatch("leak:1")
		c.Spawn("W", nil, "leak:2", func(c *Ctx) { c.Await(l, "leak:3") })
		c.Step("leak:4")
		end(c)
	}
}

// spinning spawns a worker, and both threads step forever.
func spinning(c *Ctx) {
	spin := func(c *Ctx) {
		for {
			c.Step("leak:5")
		}
	}
	c.Spawn("W", nil, "leak:6", spin)
	spin(c)
}

// goroutinesBackTo waits until at most base goroutines exist, collecting
// garbage so that dropped pools run their cleanups, and fails the test
// if the count does not get there.
func goroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, want at most %d", runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineLeakAfterDeadlock runs fresh schedulers to every kind
// of end — deadlock, stall, step limit and a user panic — and checks
// after each that the goroutine count is back at its baseline: an
// unpooled Run stops its threads' coroutines before it returns.
func TestNoGoroutineLeakAfterDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	check := func(what string) {
		t.Helper()
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%s: %d goroutines after Run, baseline %d", what, n, base)
		}
	}
	seen := map[Outcome]bool{}
	for seed := int64(0); seed < 30; seed++ {
		seen[New(Options{Seed: seed}).Run(fig1(0)).Outcome] = true
		check("fig1")
	}
	if !seen[Deadlock] {
		t.Fatal("no fig1 seed deadlocked")
	}
	stall := stuckOnLatch(func(c *Ctx) { c.Await(c.NewLatch("leak:7"), "leak:8") })
	if res := New(Options{Seed: 1}).Run(stall); res.Outcome != Stall || res.Aborted != 2 {
		t.Fatalf("stall run: outcome %v, aborted %d", res.Outcome, res.Aborted)
	}
	check("stall")
	if res := New(Options{Seed: 1, MaxSteps: 200}).Run(spinning); res.Outcome != StepLimit || res.Aborted != 2 {
		t.Fatalf("step-limit run: outcome %v, aborted %d", res.Outcome, res.Aborted)
	}
	check("step limit")
	boom := stuckOnLatch(func(*Ctx) { panic("boom") })
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the user panic", r)
			}
		}()
		New(Options{Seed: 1}).Run(boom)
	}()
	check("user panic")
}

// TestPoolDropStopsCoroutines checks that a pool's idle shells hold
// goroutines between runs and that the pool's cleanup stops all of them
// once the pool is dropped.
func TestPoolDropStopsCoroutines(t *testing.T) {
	for i := 0; i < 3; i++ { // let earlier tests' dropped pools finish
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	base := runtime.NumGoroutine()
	pool := NewPool()
	for seed := int64(0); seed < 30; seed++ {
		pool.Run(Options{Seed: seed}, fig1(0))
	}
	if n := runtime.NumGoroutine(); n != base+3 {
		t.Fatalf("%d goroutines with the pool's 3 idle shells, baseline %d", n, base)
	}
	runtime.KeepAlive(pool)
	goroutinesBackTo(t, base)
}

// TestPoolRunPanicLeavesNoGoroutine checks that a pooled run whose main
// panics stops the coroutines of the shells it abandons, while the pool
// itself is still alive.
func TestPoolRunPanicLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	pool := NewPool()
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want the user panic", r)
			}
		}()
		pool.Run(Options{Seed: 1}, stuckOnLatch(func(*Ctx) { panic("boom") }))
	}()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the panicking pooled run, baseline %d", n, base)
	}
	// The pool still serves runs after abandoning the shells.
	if res := pool.Run(Options{Seed: 1}, fig1(0)); res.Spawned != 3 {
		t.Fatalf("pooled run after the panic spawned %d threads", res.Spawned)
	}
}

// alternate grants the enabled threads in turn, so two threads that
// stay enabled hand the baton across on every grant.
type alternate struct{ n int }

func (a *alternate) Next(_ *Scheduler, enabled []event.TID) event.TID {
	a.n++
	return enabled[a.n%len(enabled)]
}

// BenchmarkGrant times one grant of the handoff layer with two Go-coded
// threads. In self, main joins the worker, so each of the worker's
// steps is granted back to the worker itself; in cross, two workers
// step in alternation, so each grant switches threads. ns/op is per
// grant.
func BenchmarkGrant(b *testing.B) {
	steps := func(n int) func(*Ctx) {
		return func(c *Ctx) {
			for i := 0; i < n; i++ {
				c.Step("grant:1")
			}
		}
	}
	for _, bc := range []struct {
		name string
		main func(n int) func(*Ctx)
	}{
		{"self", func(n int) func(*Ctx) {
			return func(c *Ctx) {
				c.Join(c.Spawn("W", nil, "grant:2", steps(n)), "grant:3")
			}
		}},
		{"cross", func(n int) func(*Ctx) {
			return func(c *Ctx) {
				w1 := c.Spawn("W1", nil, "grant:2", steps(n/2))
				w2 := c.Spawn("W2", nil, "grant:2", steps(n-n/2))
				c.Join(w1, "grant:3")
				c.Join(w2, "grant:3")
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			res := New(Options{Seed: 1, MaxSteps: b.N + 20, Policy: &alternate{}}).Run(bc.main(b.N))
			if res.Outcome != Completed {
				b.Fatalf("outcome %v", res.Outcome)
			}
		})
	}
}
