package sched

import (
	"slices"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
)

// fig1 is the paper's Figure 1 program: two threads acquiring two locks
// in opposite orders, the first delayed by long-running work.
func fig1(work int) func(*Ctx) {
	return func(c *Ctx) {
		o1 := c.New("Object", "Fig1:22")
		o2 := c.New("Object", "Fig1:23")
		body := func(l1, l2 *object.Obj, delay int) func(*Ctx) {
			return func(c *Ctx) {
				c.Work(delay, "Fig1:10")
				c.Sync(l1, "Fig1:15", func() {
					c.Sync(l2, "Fig1:16", func() {})
				})
			}
		}
		t1 := c.Spawn("T1", nil, "Fig1:25", body(o1, o2, work))
		t2 := c.Spawn("T2", nil, "Fig1:26", body(o2, o1, 0))
		c.Join(t1, "Fig1:28")
		c.Join(t2, "Fig1:28")
	}
}

func TestRunCompletes(t *testing.T) {
	// With heavy skew, a random schedule nearly always lets T2 finish
	// before T1 reaches its locks; most seeds complete.
	completed := 0
	for seed := int64(0); seed < 20; seed++ {
		s := New(Options{Seed: seed})
		res := s.Run(fig1(50))
		if res.Outcome == Completed {
			completed++
		}
		if res.Outcome != Completed && res.Outcome != Deadlock {
			t.Fatalf("seed %d: unexpected outcome %v", seed, res.Outcome)
		}
	}
	if completed < 15 {
		t.Errorf("expected most skewed runs to complete, got %d/20", completed)
	}
}

func TestDeadlockDetected(t *testing.T) {
	// With no skew, some seed deadlocks quickly.
	found := false
	for seed := int64(0); seed < 50 && !found; seed++ {
		s := New(Options{Seed: seed})
		res := s.Run(fig1(0))
		if res.Outcome == Deadlock {
			found = true
			if res.Deadlock == nil || len(res.Deadlock.Edges) != 2 {
				t.Fatalf("bad deadlock info: %+v", res.Deadlock)
			}
			for _, e := range res.Deadlock.Edges {
				if len(e.Held) != 1 {
					t.Errorf("edge holds %d locks, want 1", len(e.Held))
				}
				if len(e.Context) != 2 {
					t.Errorf("edge context %v, want len 2", e.Context)
				}
			}
		}
	}
	if !found {
		t.Fatal("no seed in 0..49 produced the Figure 1 deadlock")
	}
}

func TestDeterminism(t *testing.T) {
	type trace struct {
		outcome Outcome
		steps   int
		events  uint64
	}
	run := func() trace {
		s := New(Options{Seed: 7})
		r := s.Run(fig1(3))
		return trace{r.Outcome, r.Steps, r.Events}
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs: %+v vs %+v", i, got, first)
		}
	}
}

func TestReentrantLock(t *testing.T) {
	events := &collector{}
	s := New(Options{Seed: 1, Observers: []Observer{events}})
	res := s.Run(func(c *Ctx) {
		l := c.New("Object", "re:1")
		c.Acquire(l, "re:2")
		c.Acquire(l, "re:3") // re-acquire: no event
		c.Release(l, "re:3")
		c.Release(l, "re:2")
	})
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	acq, rel := 0, 0
	for _, e := range events.evs {
		switch e.Kind {
		case event.KindAcquire:
			acq++
		case event.KindRelease:
			rel++
		}
	}
	if acq != 1 || rel != 1 {
		t.Errorf("re-entrant lock emitted %d acquires, %d releases; want 1, 1", acq, rel)
	}
}

func TestJoinBlocksUntilChildExits(t *testing.T) {
	var order []string
	s := New(Options{Seed: 3})
	res := s.Run(func(c *Ctx) {
		child := c.Spawn("child", nil, "j:1", func(c *Ctx) {
			c.Work(5, "j:2")
			order = append(order, "child-done")
		})
		c.Join(child, "j:3")
		order = append(order, "after-join")
	})
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if len(order) != 2 || order[0] != "child-done" || order[1] != "after-join" {
		t.Errorf("order = %v", order)
	}
}

func TestLatchStall(t *testing.T) {
	s := New(Options{Seed: 2})
	res := s.Run(func(c *Ctx) {
		l := c.NewLatch("l:1")
		c.Await(l, "l:2") // nobody signals: communication deadlock
	})
	if res.Outcome != Stall {
		t.Fatalf("outcome = %v, want stall", res.Outcome)
	}
}

func TestLatchSignalWakes(t *testing.T) {
	s := New(Options{Seed: 2})
	res := s.Run(func(c *Ctx) {
		l := c.NewLatch("l:1")
		c.Spawn("signaler", nil, "l:2", func(c *Ctx) {
			c.Work(3, "l:3")
			c.Signal(l, "l:4")
		})
		c.Await(l, "l:5")
	})
	if res.Outcome != Completed {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestAcquireContextSnapshot(t *testing.T) {
	events := &collector{}
	s := New(Options{Seed: 1, Observers: []Observer{events}})
	s.Run(func(c *Ctx) {
		a := c.New("Object", "cs:1")
		b := c.New("Object", "cs:2")
		c.Sync(a, "cs:3", func() {
			c.Sync(b, "cs:4", func() {})
		})
	})
	var inner *Ev
	for i := range events.evs {
		e := &events.evs[i]
		if e.Kind == event.KindAcquire && e.Loc == "cs:4" {
			inner = e
		}
	}
	if inner == nil {
		t.Fatal("inner acquire not observed")
	}
	if len(inner.LockSet) != 1 || inner.LockSet[0].Site != "cs:1" {
		t.Errorf("inner LockSet = %v, want [a]", inner.LockSet)
	}
	want := event.Context{"cs:3", "cs:4"}
	if !inner.Context.Equal(want) {
		t.Errorf("inner Context = %v, want %v", inner.Context, want)
	}
}

func TestStepLimit(t *testing.T) {
	s := New(Options{Seed: 1, MaxSteps: 10})
	res := s.Run(func(c *Ctx) {
		for {
			c.Step("loop:1")
		}
	})
	if res.Outcome != StepLimit {
		t.Fatalf("outcome = %v, want step-limit", res.Outcome)
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	s := New(Options{Seed: 1})
	s.Run(func(c *Ctx) {
		c.Step("p:1")
		panic("boom")
	})
}

func TestReleaseWithoutHoldFails(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected scheduler error")
		}
	}()
	s := New(Options{Seed: 1})
	s.Run(func(c *Ctx) {
		l := c.New("Object", "r:1")
		c.Release(l, "r:2")
	})
}

func TestKObjectCreatorChain(t *testing.T) {
	var inner *object.Obj
	s := New(Options{Seed: 1})
	s.Run(func(c *Ctx) {
		outer := c.New("Factory", "ko:1")
		c.Call("make", outer, "ko:2", func() {
			inner = c.New("Product", "ko:3")
		})
	})
	if inner.Creator == nil || inner.Creator.Site != "ko:1" {
		t.Fatalf("creator chain not recorded: %+v", inner)
	}
	abs := object.KObject.Of(inner, 2)
	if abs != "ko:3<-ko:1" {
		t.Errorf("absO_2 = %q", abs)
	}
}

func TestExecIndexDistinguishesLoopAllocations(t *testing.T) {
	var objs []*object.Obj
	s := New(Options{Seed: 1})
	s.Run(func(c *Ctx) {
		for i := 0; i < 3; i++ {
			objs = append(objs, c.New("Object", "ei:1"))
		}
	})
	keys := map[object.Key]bool{}
	for _, o := range objs {
		keys[object.ExecIndex.Of(o, 4)] = true
	}
	if len(keys) != 3 {
		t.Errorf("exec-index produced %d distinct keys for 3 loop allocations, want 3", len(keys))
	}
	if k := object.KObject.Of(objs[0], 4); k != object.KObject.Of(objs[2], 4) {
		t.Errorf("k-object should collapse loop allocations, got %q vs %q", k, object.KObject.Of(objs[2], 4))
	}
}

// collector is a test observer that stores all events.
type collector struct {
	evs []Ev
}

func (c *collector) OnEvent(ev Ev) { c.evs = append(c.evs, ev) }

// TestBodyWithoutSchedulingPoint pins that a thread whose body returns
// before its first post still exits: main alone, and a spawned child
// that main joins, both complete with nothing aborted, fresh and pooled,
// and the child's Exit event directly follows its Spawn.
func TestBodyWithoutSchedulingPoint(t *testing.T) {
	empty := func(*Ctx) {}
	cases := []struct {
		name  string
		main  func(*Ctx)
		kinds []event.Kind
	}{
		{"main", empty, []event.Kind{event.KindExit}},
		{"spawned", func(c *Ctx) {
			c.Join(c.Spawn("W", nil, "empty:1", empty), "empty:2")
		}, []event.Kind{event.KindSpawn, event.KindExit, event.KindJoin, event.KindExit}},
	}
	pool := NewPool()
	for _, tc := range cases {
		for _, pooled := range []bool{false, true} {
			var col collector
			opts := Options{Seed: 1, Observers: []Observer{&col}}
			var res *Result
			if pooled {
				res = pool.Run(opts, tc.main)
			} else {
				res = New(opts).Run(tc.main)
			}
			if res.Outcome != Completed || res.Aborted != 0 {
				t.Errorf("%s pooled=%v: outcome %v, aborted %d; want completed, 0", tc.name, pooled, res.Outcome, res.Aborted)
			}
			var kinds []event.Kind
			for _, ev := range col.evs {
				kinds = append(kinds, ev.Kind)
			}
			if !slices.Equal(kinds, tc.kinds) {
				t.Errorf("%s pooled=%v: events %v, want %v", tc.name, pooled, kinds, tc.kinds)
			}
		}
	}
}

// TestDeadlockEdgesIndependent pins that the edges of a DeadlockInfo,
// whose Held and Context stacks share backing arrays, stay independent:
// appending to one edge's slices leaves every other edge unchanged.
func TestDeadlockEdgesIndependent(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		res := New(Options{Seed: seed}).Run(fig1(0))
		if res.Outcome != Deadlock {
			continue
		}
		edges := res.Deadlock.Edges
		held := make([][]*object.Obj, len(edges))
		ctx := make([]event.Context, len(edges))
		for i, e := range edges {
			if len(e.Held) == 0 {
				t.Fatalf("seed %d: edge %d holds no lock", seed, i)
			}
			held[i], ctx[i] = slices.Clone(e.Held), slices.Clone(e.Context)
		}
		for i := range edges {
			edges[i].Held = append(edges[i].Held, nil)
			edges[i].Context = append(edges[i].Context, "appended")
			for j, e := range edges {
				if j == i {
					continue
				}
				if !slices.Equal(e.Held[:len(held[j])], held[j]) || !slices.Equal(e.Context[:len(ctx[j])], ctx[j]) {
					t.Fatalf("seed %d: appending to edge %d changed edge %d", seed, i, j)
				}
			}
		}
		return
	}
	t.Fatal("no seed deadlocked")
}
