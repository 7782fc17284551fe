package sched

import (
	"bytes"
	"fmt"
	"strings"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
	"dlfuzz/internal/waitgraph"
)

// Chan is a Go-style channel simulated by the scheduler: sends block
// until a receiver rendezvous (capacity 0) or buffer space exists,
// receives block until a value or a close arrives, and close wakes
// every blocked receiver. Channel state lives on the handle — channels
// are per-run heap objects like locks' owning objects, not scheduler
// tables — so pooled scheduler reuse needs no channel reset.
type Chan struct {
	obj      *object.Obj
	capacity int
	buf      []any // buffered values, FIFO, len <= capacity
	closed   bool
}

// Obj returns the channel's identity object.
func (ch *Chan) Obj() *object.Obj { return ch.obj }

// Cap returns the channel's capacity (0 = unbuffered).
func (ch *Chan) Cap() int { return ch.capacity }

// Len returns the number of buffered values.
func (ch *Chan) Len() int { return len(ch.buf) }

// Closed reports whether the channel has been closed.
func (ch *Chan) Closed() bool { return ch.closed }

// WaitGroup is a Go-style sync.WaitGroup: Add adjusts a counter, Wait
// blocks until it reaches zero. Like Chan, all state lives on the
// handle.
type WaitGroup struct {
	obj   *object.Obj
	count int
}

// Obj returns the WaitGroup's identity object.
func (wg *WaitGroup) Obj() *object.Obj { return wg.obj }

// Count returns the current counter value.
func (wg *WaitGroup) Count() int { return wg.count }

// MisuseError is the scheduler's report of a runtime misuse of a
// blocking primitive — send on a closed channel, double close, a
// WaitGroup counter driven negative, a monitor wait/notify/release
// without holding the lock. It aborts the run like any
// scheduler error (Run panics with it), but carries a structured
// location so language frontends can convert it into their own runtime
// error type.
type MisuseError struct {
	Loc event.Loc
	Msg string
}

// Error formats the misuse like the scheduler's other errors.
func (e *MisuseError) Error() string {
	return fmt.Sprintf("sched: %s at %s", e.Msg, e.Loc)
}

// pendingReceiver returns the lowest-TID alive thread blocked receiving
// on ch that has not already been handed a rendezvous value, or nil.
// The alive list is sorted ascending, so the scan is deterministic.
func (s *Scheduler) pendingReceiver(ch *Chan) *Thread {
	for _, t := range s.alive {
		if t.pending.Kind == event.KindChanRecv && t.pending.Ch == ch && !t.recvReady {
			return t
		}
	}
	return nil
}

// BlockedThread describes one permanently blocked thread in a
// BlockedInfo: who is stuck, on what kind of operation, on which
// object, and at which statement.
type BlockedThread struct {
	Thread    event.TID
	ThreadObj *object.Obj
	Name      string
	Kind      waitgraph.BlockKind
	// Obj is the object the wait targets: the lock, channel, WaitGroup
	// or latch, or the joined thread's object. May be nil for synthetic
	// waits.
	Obj *object.Obj
	Loc event.Loc
}

// String renders one blocked thread like "t2(client-1) recv(o4)@x.clf:9".
func (b BlockedThread) String() string {
	return fmt.Sprintf("%s(%s) %s(%s)@%s", b.Thread, b.Name, b.Kind, b.Obj, b.Loc)
}

// BlockedInfo is the scheduler's verdict on a run that left threads
// blocked forever: the stuck threads (ascending TID), whether the
// deadlock is partial — other threads ran to completion, or are still
// runnable at the step limit, while these can never proceed — or total
// (every remaining thread is stuck). Lock-cycle deadlocks keep their
// own DeadlockInfo report; BlockedInfo covers the blocking-op classes
// the wait-for graph alone cannot see.
type BlockedInfo struct {
	Threads []BlockedThread
	Partial bool
	// Step is the scheduler step at which the verdict was reached.
	Step int
}

// String renders the verdict on one line.
func (b *BlockedInfo) String() string {
	var sb strings.Builder
	if b.Partial {
		sb.WriteString("partial deadlock: ")
	} else {
		sb.WriteString("total deadlock: ")
	}
	for i, t := range b.Threads {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.String())
	}
	return sb.String()
}

// Key returns a canonical, execution-independent form of the verdict:
// the sorted multiset of per-thread "name kind(Type@site)@loc" waits,
// prefixed by the partial/total class. Thread ids and object ids are
// deliberately excluded — they are not stable across seeds — so equal
// keys across runs mean the same deadlock, which is what lets campaign
// aggregation count distinct verdicts.
func (b *BlockedInfo) Key() string { return string(b.AppendKey(nil)) }

// AppendKey appends Key's bytes to dst and returns the extended buffer.
// It renders each per-thread part after dst's end, orders the parts by
// insertion sort over their spans, appends the "+"-joined parts behind
// them and slides that copy down over the unsorted ones, so a warm
// buffer makes it allocation-free (up to 8 threads).
func (b *BlockedInfo) AppendKey(dst []byte) []byte {
	if b.Partial {
		dst = append(dst, "partial:"...)
	} else {
		dst = append(dst, "total:"...)
	}
	base := len(dst)
	var spanBuf [8][2]int
	spans := spanBuf[:0]
	for _, t := range b.Threads {
		start := len(dst)
		dst = append(dst, t.Name...)
		dst = append(dst, ' ')
		dst = append(dst, t.Kind.String()...)
		dst = append(dst, '(')
		if t.Obj != nil {
			dst = append(dst, t.Obj.Type...)
			dst = append(dst, '@')
			dst = append(dst, t.Obj.Site...)
		} else {
			dst = append(dst, '?')
		}
		dst = append(dst, ")@"...)
		dst = append(dst, t.Loc...)
		sp := [2]int{start, len(dst)}
		i := len(spans)
		spans = append(spans, sp)
		for ; i > 0 && bytes.Compare(dst[start:], dst[spans[i-1][0]:spans[i-1][1]]) < 0; i-- {
			spans[i] = spans[i-1]
		}
		spans[i] = sp
	}
	end := len(dst)
	for i, sp := range spans {
		if i > 0 {
			dst = append(dst, '+')
		}
		dst = append(dst, dst[sp[0]:sp[1]]...)
	}
	n := copy(dst[base:], dst[end:])
	return dst[:base+n]
}

// blockedOn classifies an alive, non-enabled thread's pending request,
// returning the wait kind, the sole unblocker (or NoThread) and the
// object the wait targets. ok is false for requests that are not
// blocking waits (e.g. a posted Exit).
func (s *Scheduler) blockedOn(t *Thread) (kind waitgraph.BlockKind, on event.TID, obj *object.Obj, ok bool) {
	r := &t.pending
	switch r.Kind {
	case event.KindAcquire:
		if r.WaitResume && !t.notified {
			return waitgraph.BlockNotifyWait, event.NoThread, r.Obj, true
		}
		on := event.NoThread
		if ls := s.lookupLock(r.Obj.ID); ls != nil {
			on = ls.holder
		}
		return waitgraph.BlockAcquire, on, r.Obj, true
	case event.KindJoin:
		return waitgraph.BlockJoin, r.Target, s.threads[r.Target].obj, true
	case event.KindAwait:
		return waitgraph.BlockAwait, event.NoThread, r.Obj, true
	case event.KindChanSend:
		return waitgraph.BlockChanSend, event.NoThread, r.Ch.obj, true
	case event.KindChanRecv:
		return waitgraph.BlockChanRecv, event.NoThread, r.Ch.obj, true
	case event.KindWGWait:
		return waitgraph.BlockWGWait, event.NoThread, r.WG.obj, true
	}
	return 0, event.NoThread, nil, false
}

// classifyBlocked runs the partial-deadlock analysis over the current
// state: every alive thread not in enabled is a blocked candidate,
// runners is the number of enabled threads (zero in a stalled state).
// It returns nil when no thread is provably stuck forever — in
// particular for every mutex-only program, whose lock cycles are caught
// earlier by the wait-for graph.
func (s *Scheduler) classifyBlocked(runners int) *BlockedInfo {
	var waits []waitgraph.BlockedOn
	var kinds []waitgraph.BlockKind
	var objs []*object.Obj
	for _, t := range s.alive {
		if s.executable(t) {
			continue
		}
		kind, on, obj, ok := s.blockedOn(t)
		if !ok {
			continue
		}
		waits = append(waits, waitgraph.BlockedOn{Thread: t.id, Kind: kind, On: on})
		kinds = append(kinds, kind)
		objs = append(objs, obj)
	}
	stuck := waitgraph.Forever(waits, runners)
	if len(stuck) == 0 {
		return nil
	}
	info := &BlockedInfo{Step: s.steps}
	stuckSet := make(map[event.TID]bool, len(stuck))
	for _, tid := range stuck {
		stuckSet[tid] = true
	}
	for i, w := range waits {
		if !stuckSet[w.Thread] {
			continue
		}
		t := s.threads[w.Thread]
		info.Threads = append(info.Threads, BlockedThread{
			Thread:    w.Thread,
			ThreadObj: t.obj,
			Name:      t.name,
			Kind:      kinds[i],
			Obj:       objs[i],
			Loc:       t.pending.Loc,
		})
	}
	// Partial iff some thread escaped: it already exited, it is still
	// runnable (step limit), or it is blocked but not provably stuck.
	info.Partial = len(info.Threads) < len(s.threads)
	return info
}
