package sched_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
	"dlfuzz/internal/waitgraph"
	"dlfuzz/internal/workloads"
)

// refKey is the reference rendering of BlockedInfo.Key: each thread's
// "name kind(Type@site)@loc" wait through fmt, sorted as strings and
// joined with "+" behind the partial/total prefix.
func refKey(b *sched.BlockedInfo) string {
	parts := make([]string, len(b.Threads))
	for i, t := range b.Threads {
		objKey := "?"
		if t.Obj != nil {
			objKey = fmt.Sprintf("%s@%s", t.Obj.Type, t.Obj.Site)
		}
		parts[i] = fmt.Sprintf("%s %s(%s)@%s", t.Name, t.Kind, objKey, t.Loc)
	}
	sort.Strings(parts)
	prefix := "total:"
	if b.Partial {
		prefix = "partial:"
	}
	return prefix + strings.Join(parts, "+")
}

func checkKey(t *testing.T, what string, b *sched.BlockedInfo) {
	t.Helper()
	want := refKey(b)
	if got := b.Key(); got != want {
		t.Errorf("%s: Key\n got %q\nwant %q", what, got, want)
	}
	const prefix = "prefix|"
	dst := append(make([]byte, 0, 4), prefix...)
	if got := string(b.AppendKey(dst)); got != prefix+want {
		t.Errorf("%s: AppendKey after a prefix\n got %q\nwant %q", what, got, prefix+want)
	}
}

// TestAppendKeyMatchesReference pins the allocation-free key renderer
// to the fmt/sort reference over every blocking-suite verdict at seeds
// 0–99 and over synthetic verdicts the suite does not produce.
func TestAppendKeyMatchesReference(t *testing.T) {
	verdicts := 0
	for _, w := range workloads.Blocking() {
		for seed := int64(0); seed < 100; seed++ {
			res := sched.New(sched.Options{Seed: seed, MaxSteps: 50_000}).Run(w.Prog)
			if res.Blocked != nil {
				verdicts++
				checkKey(t, fmt.Sprintf("%s seed %d", w.Name, seed), res.Blocked)
			}
		}
	}
	if verdicts == 0 {
		t.Fatal("the blocking suite produced no verdicts")
	}

	lock := &object.Obj{ID: 1, Type: "Lock", Site: "x.clf:3"}
	ch := &object.Obj{ID: 2, Type: "Chan", Site: "x.clf:4"}
	thread := func(name string, kind waitgraph.BlockKind, obj *object.Obj, loc event.Loc) sched.BlockedThread {
		return sched.BlockedThread{Name: name, Kind: kind, Obj: obj, Loc: loc}
	}
	var many []sched.BlockedThread
	for i := 11; i >= 0; i-- {
		many = append(many, thread(fmt.Sprintf("w%d", i), waitgraph.BlockChanRecv, ch, event.Loc(fmt.Sprintf("x.clf:%d", 20-i))))
	}
	cases := map[string]*sched.BlockedInfo{
		"empty":               {},
		"nil obj":             {Threads: []sched.BlockedThread{thread("main", waitgraph.BlockAwait, nil, "x.clf:9")}},
		"more than 8 threads": {Threads: many, Partial: true},
		"duplicate parts": {Threads: []sched.BlockedThread{
			thread("w", waitgraph.BlockChanSend, ch, "x.clf:7"),
			thread("main", waitgraph.BlockJoin, nil, "x.clf:12"),
			thread("w", waitgraph.BlockChanSend, ch, "x.clf:7"),
			thread("a", waitgraph.BlockAcquire, lock, "x.clf:5"),
			thread("w", waitgraph.BlockChanSend, ch, "x.clf:7"),
		}},
		"prefix-ordered parts": {Threads: []sched.BlockedThread{
			thread("t", waitgraph.BlockAcquire, lock, "x.clf:10"),
			thread("t", waitgraph.BlockAcquire, lock, "x.clf:1"),
			thread("t", waitgraph.BlockAcquire, lock, ""),
		}},
	}
	for name, b := range cases {
		checkKey(t, name, b)
	}
}

// lockChanMixVerdict returns the first lock-chan-mix verdict that
// leaves at least two threads stuck.
func lockChanMixVerdict(tb testing.TB) *sched.BlockedInfo {
	for seed := int64(0); seed < 100; seed++ {
		b := sched.New(sched.Options{Seed: seed, MaxSteps: 50_000}).Run(workloads.LockChanMix().Prog).Blocked
		if b != nil && len(b.Threads) >= 2 {
			return b
		}
	}
	tb.Fatal("lock-chan-mix left no two threads stuck at seeds 0-99")
	return nil
}

// TestAppendKeyAllocs pins AppendKey into a warm buffer at zero
// allocations for a verdict of up to 8 threads.
func TestAppendKeyAllocs(t *testing.T) {
	b := lockChanMixVerdict(t)
	buf := b.AppendKey(nil)
	if allocs := testing.AllocsPerRun(100, func() { buf = b.AppendKey(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendKey into a warm buffer: %v allocs, want 0", allocs)
	}
}

// BenchmarkBlockedKey times rendering one real verdict's key, as a
// fresh string and into a reused buffer.
func BenchmarkBlockedKey(b *testing.B) {
	info := lockChanMixVerdict(b)
	b.Run("Key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = info.Key()
		}
	})
	b.Run("AppendKey", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = info.AppendKey(buf[:0])
		}
	})
}
