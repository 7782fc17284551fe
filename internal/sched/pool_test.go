package sched

import (
	"reflect"
	"runtime"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
)

// acquireHeavy performs n acquire/release pairs over two nested locks
// with no per-iteration closures, so steady-state iterations exercise
// only the scheduler hot path.
func acquireHeavy(n int) func(*Ctx) {
	return func(c *Ctx) {
		a := c.New("Object", "pool:a")
		b := c.New("Object", "pool:b")
		for i := 0; i < n; i++ {
			c.Acquire(a, "pool:1")
			c.Acquire(b, "pool:2")
			c.Release(b, "pool:2")
			c.Release(a, "pool:1")
		}
	}
}

// TestPoolRunMatchesFresh pins the pool's core guarantee: a recycled
// shell produces results deeply equal to a fresh scheduler's, for both
// completing and deadlocking seeds, run after run.
func TestPoolRunMatchesFresh(t *testing.T) {
	pool := NewPool()
	for round := 0; round < 2; round++ {
		for seed := int64(0); seed < 40; seed++ {
			fresh := New(Options{Seed: seed}).Run(fig1(0))
			pooled := pool.Run(Options{Seed: seed}, fig1(0))
			if !reflect.DeepEqual(fresh, pooled) {
				t.Fatalf("round %d seed %d: pooled result differs\nfresh:  %+v\npooled: %+v",
					round, seed, fresh, pooled)
			}
		}
	}
}

// snapObserver retains every Acquire snapshot exactly as delivered,
// alongside deep copies taken at delivery time, so later mutation of a
// supposedly immutable snapshot is detectable.
type snapObserver struct {
	locksets [][]*object.Obj
	ctxs     []event.Context
	lockIDs  [][]uint64
	ctxCopy  []event.Context
}

func (o *snapObserver) OnEvent(ev Ev) {
	if ev.Kind != event.KindAcquire {
		return
	}
	o.locksets = append(o.locksets, ev.LockSet)
	ids := make([]uint64, len(ev.LockSet))
	for i, l := range ev.LockSet {
		ids[i] = l.ID
	}
	o.lockIDs = append(o.lockIDs, ids)
	o.ctxs = append(o.ctxs, ev.Context)
	o.ctxCopy = append(o.ctxCopy, ev.Context.Clone())
}

// TestPoolSnapshotsSurviveReuse drives several observed executions
// through one pool and then verifies every snapshot retained from every
// run still holds the values it was delivered with: the copy-on-write
// watermarks must protect snapshots across thread-shell reuse.
func TestPoolSnapshotsSurviveReuse(t *testing.T) {
	pool := NewPool()
	var observers []*snapObserver
	for seed := int64(0); seed < 8; seed++ {
		obs := &snapObserver{}
		observers = append(observers, obs)
		pool.Run(Options{Seed: seed, Observers: []Observer{obs}}, fig1(0))
	}
	for run, obs := range observers {
		if len(obs.locksets) == 0 {
			t.Fatalf("run %d: no acquire snapshots", run)
		}
		for i, ls := range obs.locksets {
			for j, l := range ls {
				if l.ID != obs.lockIDs[i][j] {
					t.Fatalf("run %d snapshot %d: lockset[%d] mutated to o%d, want o%d",
						run, i, j, l.ID, obs.lockIDs[i][j])
				}
			}
			if !obs.ctxs[i].Equal(obs.ctxCopy[i]) {
				t.Fatalf("run %d snapshot %d: context mutated to %v, want %v",
					run, i, obs.ctxs[i], obs.ctxCopy[i])
			}
		}
	}
}

// TestPoolAcquireAllocs is the hot-path regression guard: once the pool
// is warm, an acquire-heavy execution may allocate only per-run
// essentials (thread/lock objects, index snapshots, the Result), never
// per-event state. The pre-pool scheduler spent thousands of allocations
// on a run like this; the bound fails loudly if per-step or per-acquire
// allocation creeps back in.
func TestPoolAcquireAllocs(t *testing.T) {
	pool := NewPool()
	prog := acquireHeavy(100)
	pool.Run(Options{Seed: 1}, prog) // warm the shells
	avg := testing.AllocsPerRun(10, func() {
		pool.Run(Options{Seed: 1}, prog)
	})
	if avg > 60 {
		t.Errorf("acquire-heavy pooled run allocates %.0f objects, want <= 60", avg)
	}
}

// TestPoolLazyMaps pins the lazy-allocation satellite: a fresh scheduler
// must not allocate the latch or lock tables until something uses them.
func TestPoolLazyMaps(t *testing.T) {
	s := New(Options{Seed: 1})
	if s.locks != nil || s.latches != nil {
		t.Fatal("lock/latch maps allocated eagerly")
	}
	res := s.Run(func(c *Ctx) {
		c.Step("lazy:1")
	})
	if res.Outcome != Completed {
		t.Fatalf("outcome %v", res.Outcome)
	}
	if s.locks != nil || s.latches != nil {
		t.Fatal("lock/latch maps allocated by a lock-free run")
	}
}

type discardObserver struct{}

func (discardObserver) OnEvent(Ev) {}

// TestPoolObservedStacksFlat pins the copy-on-write stacks of recycled
// shells under observed pooled runs: every run publishes lock and
// context snapshots, so its first push copies the stack, and that copy
// must keep the capacity rather than grow it. After warm-up the stack
// capacities and the bytes allocated per run stay flat.
func TestPoolObservedStacksFlat(t *testing.T) {
	pool := NewPool()
	prog := acquireHeavy(4)
	opts := Options{Seed: 1, Observers: []Observer{discardObserver{}}}
	maxCaps := func() (locks, ctxs int) {
		for _, th := range pool.threads {
			locks = max(locks, cap(th.lockStack))
			ctxs = max(ctxs, cap(th.ctxStack))
		}
		return locks, ctxs
	}
	bytesPerRun := func(runs int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			pool.Run(opts, prog)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	}
	for i := 0; i < 100; i++ {
		pool.Run(opts, prog)
	}
	locks0, ctxs0 := maxCaps()
	if locks0 == 0 || ctxs0 == 0 {
		t.Fatalf("warm-up left no stacks: caps %d/%d", locks0, ctxs0)
	}
	early := bytesPerRun(950)
	late := bytesPerRun(950)
	if locks, ctxs := maxCaps(); locks != locks0 || ctxs != ctxs0 {
		t.Errorf("stack capacities grew over 1900 pooled runs: lockStack %d -> %d, ctxStack %d -> %d",
			locks0, locks, ctxs0, ctxs)
	}
	if late > early*1.1+64 {
		t.Errorf("bytes per observed pooled run grew from %.0f to %.0f", early, late)
	}
}
