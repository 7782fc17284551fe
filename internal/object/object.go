// Package object implements the dynamic-object model and the object
// abstractions of Section 2.4 of the DeadlockFuzzer paper.
//
// A dynamic object (a lock, a thread, or any program value) has a unique
// id that is only meaningful within one execution. To correlate objects
// between the Phase I (iGoodlock) and Phase II (fuzzer) executions, each
// object also carries abstractions computed at allocation time:
//
//   - the trivial abstraction (every object is the same),
//   - k-object-sensitivity (absO_k): the chain of allocation sites
//     obtained by following the allocating `this` objects, and
//   - light-weight execution indexing (absI_k): the top 2k elements of
//     the thread's indexed call stack at the allocation.
//
// Both non-trivial abstractions are captured eagerly when the object is
// created, so they cost O(k) per allocation and are immutable afterwards.
package object

import (
	"fmt"
	"strconv"

	"dlfuzz/internal/event"
)

// Obj is one dynamic object. Obj values are created by an Allocator and
// shared by reference; identity is the ID field.
type Obj struct {
	// ID is the unique id within one execution (allocation order,
	// starting at 1). It plays the role of the object address in the
	// paper: stable within a run, meaningless across runs.
	ID uint64
	// Type is the declared type name (e.g. "MyThread", "Object").
	Type string
	// Site is the label of the allocating statement.
	Site event.Loc
	// Creator is the `this` object of the method that allocated this
	// object, or nil when allocated in a static/toplevel context.
	// It drives k-object-sensitivity.
	Creator *Obj
	// Index is the execution-index snapshot at allocation:
	// [c1, q1, c2, q2, ...] flattened as IndexEntry pairs, innermost
	// first, as defined in Section 2.4.2.
	Index []IndexEntry
}

// IndexEntry is one (label, count) pair of an execution index.
type IndexEntry struct {
	Loc   event.Loc
	Count int
}

// String renders the object as "o3:MyThread@fig1:25".
func (o *Obj) String() string {
	if o == nil {
		return "o?"
	}
	return fmt.Sprintf("o%d:%s@%s", o.ID, o.Type, o.Site)
}

// Abstraction is one of the object-abstraction schemes. The scheme maps a
// dynamic object to a Key such that if two objects in different executions
// are "the same", they map to the same Key.
type Abstraction int

// The abstraction schemes evaluated in the paper (Figure 2 variants).
const (
	// Trivial maps every object to the same key (variant 3,
	// "Ignore Abstraction").
	Trivial Abstraction = iota
	// KObject is absO_k: k-object-sensitivity (variant 1).
	KObject
	// ExecIndex is absI_k: light-weight execution indexing
	// (variant 2, the paper's default).
	ExecIndex
)

var absNames = [...]string{
	Trivial:   "trivial",
	KObject:   "k-object",
	ExecIndex: "exec-index",
}

// String names the abstraction scheme as used in reports.
func (a Abstraction) String() string {
	if a < 0 || int(a) >= len(absNames) {
		return fmt.Sprintf("Abstraction(%d)", int(a))
	}
	return absNames[a]
}

// AbstractionByName maps a report name ("trivial", "k-object",
// "exec-index") back to its Abstraction, for decoding persisted
// configurations such as witness traces.
func AbstractionByName(name string) (Abstraction, bool) {
	for a, n := range absNames {
		if n == name {
			return Abstraction(a), true
		}
	}
	return 0, false
}

// Key is the cross-execution identity computed by an abstraction. Keys
// are ordinary strings so they work as map keys and print readably.
type Key string

// Of computes the abstraction of o under scheme a with depth k.
// A nil object maps to the empty key under every scheme.
func (a Abstraction) Of(o *Obj, k int) Key {
	if o == nil {
		return ""
	}
	switch a {
	case Trivial:
		return "*"
	case KObject:
		return absOK(o, k)
	case ExecIndex:
		return absIK(o, k)
	default:
		panic("object: unknown abstraction scheme")
	}
}

// AppendOf appends the exact bytes of a.Of(o, k) to dst and returns the
// extended slice. It exists for callers that render keys into a reused
// buffer, which is allocation-free at steady state, where Of must
// materialize a string.
func (a Abstraction) AppendOf(dst []byte, o *Obj, k int) []byte {
	if o == nil {
		return dst
	}
	switch a {
	case Trivial:
		return append(dst, '*')
	case KObject:
		return appendOK(dst, o, k)
	case ExecIndex:
		return appendIK(dst, o, k)
	default:
		panic("object: unknown abstraction scheme")
	}
}

// absOK implements absO_k: the sequence (c1, ..., ck) where c_i is the
// allocation site of the i-th object in the creator chain. The chain may
// be shorter than k when an object was allocated outside any method of an
// object (the paper's static-method case).
func absOK(o *Obj, k int) Key {
	return Key(appendOK(nil, o, k))
}

func appendOK(dst []byte, o *Obj, k int) []byte {
	for cur := o; cur != nil && k > 0; cur, k = cur.Creator, k-1 {
		if cur != o {
			dst = append(dst, "<-"...)
		}
		dst = append(dst, cur.Site...)
	}
	return dst
}

// absIK implements absI_k: the top 2k elements of the indexed call stack
// captured at allocation, i.e. at most k (label, count) pairs starting at
// the allocation site itself.
func absIK(o *Obj, k int) Key {
	return Key(absIKBytes(o, k))
}

// absIKBytes sizes the buffer exactly, so absIK costs one allocation.
func absIKBytes(o *Obj, k int) []byte {
	n := len(o.Index)
	if n > k {
		n = k
	}
	size := 2 // brackets
	for _, e := range o.Index[:n] {
		size += len(e.Loc) + digits(e.Count) + 2 // two separators
	}
	return appendIK(make([]byte, 0, size), o, k)
}

func appendIK(dst []byte, o *Obj, k int) []byte {
	n := len(o.Index)
	if n > k {
		n = k
	}
	dst = append(dst, '[')
	for i, e := range o.Index[:n] {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, e.Loc...)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e.Count), 10)
	}
	return append(dst, ']')
}

// digits returns the rendered width of a non-negative count.
func digits(n int) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}

// Allocator mints objects with fresh unique ids for one execution and
// maintains the CreationMap implicitly via Obj.Creator links.
type Allocator struct {
	next uint64
}

// New allocates an object of the given type at site, created by a method
// of creator (nil for static/toplevel allocation), with the given
// execution-index snapshot. The snapshot is retained, not copied; callers
// must pass a fresh slice.
func (a *Allocator) New(typ string, site event.Loc, creator *Obj, index []IndexEntry) *Obj {
	a.next++
	return &Obj{
		ID:      a.next,
		Type:    typ,
		Site:    site,
		Creator: creator,
		Index:   index,
	}
}

// Count returns how many objects have been allocated.
func (a *Allocator) Count() uint64 { return a.next }

// Reset restarts the id sequence, so a recycled allocator mints exactly
// the ids a fresh one would. Previously minted Objs stay valid: they are
// never pooled, precisely because their identity outlives the execution.
func (a *Allocator) Reset() { a.next = 0 }
