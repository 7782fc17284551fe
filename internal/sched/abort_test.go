package sched_test

// Tests of the abort protocol: teardown unwinds each aborted thread with
// exactly one abortPanic, and every post the unwind makes afterwards is
// silent — no event, no second panic — whatever the thread's call
// depth.

import (
	"fmt"
	"reflect"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/lang"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
)

type recorder struct{ evs []sched.Ev }

func (r *recorder) OnEvent(ev sched.Ev) { r.evs = append(r.evs, ev) }

// crossLatched is a Go-coded program that always deadlocks: two workers
// each take one lock inside a Call and a Sync, signal their latch, wait
// for the other's, then ask for the other's lock. No thread releases a
// lock or returns from a call before the deadlock, so any Release or
// Return event would have to come from teardown. Each worker recovers
// the abort at its top level, posts again, and re-panics; survived
// counts the workers whose posts after the abort returned.
func crossLatched(survived *int) func(*sched.Ctx) {
	return func(c *sched.Ctx) {
		a := c.New("Object", "abort:1")
		b := c.New("Object", "abort:2")
		la := c.NewLatch("abort:3")
		lb := c.NewLatch("abort:4")
		worker := func(first, second *object.Obj, mine, theirs *sched.Latch) func(*sched.Ctx) {
			return func(c *sched.Ctx) {
				defer func() {
					r := recover()
					c.Release(first, "abort:10")
					c.Step("abort:11")
					*survived++
					panic(r)
				}()
				c.Call("work", nil, "abort:5", func() {
					c.Sync(first, "abort:6", func() {
						c.Signal(mine, "abort:7")
						c.Await(theirs, "abort:8")
						c.Sync(second, "abort:9", func() {})
					})
				})
			}
		}
		t1 := c.Spawn("T1", nil, "abort:12", worker(a, b, la, lb))
		t2 := c.Spawn("T2", nil, "abort:13", worker(b, a, lb, la))
		c.Join(t1, "abort:14")
		c.Join(t2, "abort:15")
	}
}

// TestAbortedPostsAreSilent pins the silent-post half of the protocol on
// Go-coded threads: the Release deferred by Sync, the Return deferred by
// Call and a post from user code after recovering the abort all return
// without an event or a panic, so each aborted thread costs the one
// abortPanic teardown raised. A pooled shell reused after such a run
// then behaves exactly like a fresh scheduler.
func TestAbortedPostsAreSilent(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		survived := 0
		rec := &recorder{}
		s := sched.New(sched.Options{Seed: seed, Observers: []sched.Observer{rec}})
		res := s.Run(crossLatched(&survived))
		if res.Outcome != sched.Deadlock {
			t.Fatalf("seed %d: outcome %v, want deadlock", seed, res.Outcome)
		}
		// main (joining) and both workers are parked at the end.
		if res.Aborted != 3 {
			t.Errorf("seed %d: Aborted = %d, want 3", seed, res.Aborted)
		}
		if got := sched.AbortPanics(s); got != res.Aborted {
			t.Errorf("seed %d: %d abort panics for %d aborted threads", seed, got, res.Aborted)
		}
		if survived != 2 {
			t.Errorf("seed %d: %d of 2 workers posted after the abort without panicking", seed, survived)
		}
		if uint64(len(rec.evs)) != res.Events {
			t.Errorf("seed %d: observed %d events, Result counts %d", seed, len(rec.evs), res.Events)
		}
		for _, ev := range rec.evs {
			if ev.Kind == event.KindRelease || ev.Kind == event.KindReturn || ev.Kind == event.KindStep {
				t.Errorf("seed %d: teardown emitted %v at %s", seed, ev.Kind, ev.Loc)
			}
		}
	}

	pool := sched.NewPool()
	for round := 0; round < 3; round++ {
		for seed := int64(0); seed < 4; seed++ {
			run := func(pooled bool) (*sched.Result, []sched.Ev) {
				survived := 0
				rec := &recorder{}
				opts := sched.Options{Seed: seed, Observers: []sched.Observer{rec}}
				if pooled {
					return pool.Run(opts, crossLatched(&survived)), rec.evs
				}
				return sched.New(opts).Run(crossLatched(&survived)), rec.evs
			}
			fres, fevs := run(false)
			pres, pevs := run(true)
			if !reflect.DeepEqual(fres, pres) {
				t.Fatalf("round %d seed %d: pooled result differs\nfresh:  %+v\npooled: %+v", round, seed, fres, pres)
			}
			// Compared rendered: a recycled shell's empty lock-set
			// snapshot is a non-nil empty slice where a fresh one is nil.
			if f, p := fmt.Sprintf("%+v", fevs), fmt.Sprintf("%+v", pevs); f != p {
				t.Fatalf("round %d seed %d: pooled events differ\nfresh:  %s\npooled: %s", round, seed, f, p)
			}
		}
	}
}

// deepDeadlock is a CLF program whose two workers always deadlock k
// calls deep, each call holding a sync of its own: at the bottom, each
// worker holds its first lock, signals, waits for the other's signal,
// and asks for the other's lock.
func deepDeadlock(k int) string {
	return fmt.Sprintf(`
fn dive(n, first, second, mine, theirs) {
    sync (new Object) {
        if n > 1 {
            dive(n - 1, first, second, mine, theirs);
        } else {
            sync (first) {
                signal mine;
                await theirs;
                sync (second) { work(1); }
            }
        }
    }
}
fn main() {
    var a = new Object;
    var b = new Object;
    var la = newlatch;
    var lb = newlatch;
    var t1 = spawn dive(%d, a, b, la, lb);
    var t2 = spawn dive(%d, b, a, lb, la);
    join t1;
    join t2;
}`, k, k)
}

// TestAbortOnePanicPerThreadAtDepth deadlocks runs whose blocked
// threads sit k CLF calls deep inside k+1 nested syncs and requires
// exactly one abortPanic per aborted thread — none from the deferred
// posts of the open frames — on both back ends, with the Aborted
// counter equal between them.
func TestAbortOnePanicPerThreadAtDepth(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		prog, err := lang.Parse("deep.clf", deepDeadlock(k))
		if err != nil {
			t.Fatal(err)
		}
		bodies := map[string]func(*sched.Ctx){
			"vm":   lang.NewInterp(prog, nil).Main(),
			"tree": lang.NewInterp(prog, nil).TreeWalk().Main(),
		}
		for name, body := range bodies {
			for seed := int64(0); seed < 3; seed++ {
				rec := &recorder{}
				s := sched.New(sched.Options{Seed: seed, Observers: []sched.Observer{rec}})
				res := s.Run(body)
				if res.Outcome != sched.Deadlock {
					t.Fatalf("k=%d %s seed %d: outcome %v, want deadlock", k, name, seed, res.Outcome)
				}
				if res.Aborted != 3 {
					t.Errorf("k=%d %s seed %d: Aborted = %d, want 3", k, name, seed, res.Aborted)
				}
				if got := sched.AbortPanics(s); got != res.Aborted {
					t.Errorf("k=%d %s seed %d: %d abort panics for %d aborted threads",
						k, name, seed, got, res.Aborted)
				}
				for _, ev := range rec.evs {
					if ev.Kind == event.KindRelease || ev.Kind == event.KindReturn {
						t.Errorf("k=%d %s seed %d: teardown emitted %v at %s", k, name, seed, ev.Kind, ev.Loc)
					}
				}
				if calls := countCalls(rec.evs, "dive"); calls != 2*k {
					t.Errorf("k=%d %s seed %d: %d dive calls, want %d", k, name, seed, calls, 2*k)
				}
			}
		}
	}
}

func countCalls(evs []sched.Ev, method string) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == event.KindCall && ev.Method == method {
			n++
		}
	}
	return n
}
