package lang

// The CLF bytecode VM. It executes the instruction streams compile.go
// produces, driving the same sched.Ctx primitives as the tree-walker but
// with unboxed values (vval), slot-addressed frames instead of map
// environments, a slice-indexed heap instead of nested maps, and thread
// states and frames reused across the thousands of executions one Interp
// drives.
//
// CLF calls do not recurse on the Go stack. Each thread runs one
// dispatch loop over an explicit frame stack: opCall posts Call
// (Ctx.Enter) and pushes a frame, opReturn posts Return (Ctx.Return)
// and pops one. A thread therefore stops — by a runtime error or by a
// teardown abort — a fixed few Go frames deep whatever its CLF call
// depth, and one defer at the thread's top level (exit) retires the
// frames still open.
//
// Byte-identity with the tree-walker is the contract (see vmdiff tests):
// same Ctx call sequence with the same labels, same print bytes, same
// RuntimeError strings and positions — including the panic-unwind path,
// where exit walks the frames innermost-first, releasing each frame's
// open sync blocks innermost-first before posting its Return, exactly
// the order the walker's stacked defers produce. An aborted thread's
// posts are silent (sched's postPending), so on abort exit skips them
// and just truncates the frame stack: the thread costs the one panic
// teardown raised.

import (
	"fmt"
	"strings"
	"sync/atomic"

	"dlfuzz/internal/event"
	"dlfuzz/internal/object"
	"dlfuzz/internal/sched"
)

// vkind enumerates vval representations. The zero kind is "unset" so a
// zeroed heap slot reads as an unset field.
type vkind uint8

const (
	vUnset vkind = iota
	vNil
	vInt
	vBool // i is 0 or 1
	vStr
	vRef // ref holds *object.Obj, *sched.Latch/Thread/Chan/WaitGroup
)

// vval is an unboxed CLF value: ints and bools live in i with no
// allocation; only reference kinds carry an interface.
type vval struct {
	kind vkind
	i    int64
	s    string
	ref  any
}

// toValue converts to the tree-walker's boxed representation. Channels
// transport boxed values (the scheduler API is `any`), and the format/
// typeName helpers are shared with the walker so messages stay identical.
func toValue(v vval) Value {
	switch v.kind {
	case vNil:
		return nil
	case vInt:
		return v.i
	case vBool:
		return v.i != 0
	case vStr:
		return v.s
	default:
		return v.ref
	}
}

// fromValue converts a boxed value (a channel receive) back to a vval.
func fromValue(v Value) vval {
	switch v := v.(type) {
	case nil:
		return vval{kind: vNil}
	case int64:
		return vval{kind: vInt, i: v}
	case bool:
		b := int64(0)
		if v {
			b = 1
		}
		return vval{kind: vBool, i: b}
	case string:
		return vval{kind: vStr, s: v}
	default:
		return vval{kind: vRef, ref: v}
	}
}

// vvalEq mirrors Go interface equality on the boxed forms: values of
// different kinds (or different dynamic reference types) are unequal.
func vvalEq(a, b vval) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case vNil:
		return true
	case vStr:
		return a.s == b.s
	case vRef:
		return a.ref == b.ref
	default:
		return a.i == b.i
	}
}

func vtype(v vval) string   { return typeName(toValue(v)) }
func vformat(v vval) string { return format(toValue(v)) }

// vmFrame is one call frame: the function and call site, the saved
// resume point, named-variable slots followed by the operand stack, and
// the stack of open sync blocks (for unwind).
type vmFrame struct {
	fn   *compiledFunc
	site event.Loc // call site; labels the Call and Return events
	// pc and sp save the frame's position while a callee runs: pc is
	// the opCall's index, sp the operand height with the args popped.
	pc, sp int
	slots  []vval
	syncs  []syncEnt
}

type syncEnt struct {
	obj *object.Obj
	loc event.Loc
}

// vmRun is the per-execution state: the field heap and the thread pool.
// It is shared by every simulated thread of one execution and recycled
// across executions through the Interp's pool. All access happens while
// the owning thread holds the scheduling baton (exactly one simulated
// thread runs at a time), except the refcount, which spawned goroutines
// release as they unwind during teardown.
type vmRun struct {
	in      *Interp
	cp      *compiledProg
	heap    [][]vval // obj.ID -> fieldID -> value; IDs are dense from 1
	threads []*vmThread
	argBuf  []vval // reusable spawn-argument staging buffer
	refs    atomic.Int32
}

func (in *Interp) getRun(cp *compiledProg) *vmRun {
	r, _ := in.pool.Get().(*vmRun)
	if r == nil {
		r = &vmRun{in: in, cp: cp}
	}
	r.refs.Store(1)
	return r
}

// addRef is taken before each Spawn so the run outlives every thread.
func (r *vmRun) addRef() { r.refs.Add(1) }

// release drops one reference; the last holder zeroes the heap (the zero
// vval is an unset field) and returns the run to the pool. Field slices
// and thread states keep their capacity for the next execution.
func (r *vmRun) release() {
	if r.refs.Add(-1) != 0 {
		return
	}
	for _, fs := range r.heap {
		for j := range fs {
			fs[j] = vval{}
		}
	}
	for j := range r.argBuf {
		r.argBuf[j] = vval{}
	}
	r.in.pool.Put(r)
}

// spawnArgs returns a reusable n-slot staging buffer for spawn
// arguments. One buffer per run suffices: the child copies its
// arguments into a fresh frame before reaching its first scheduling
// point — that is, before Spawn returns to the parent — so the buffer
// is dead again before any thread can stage the next spawn.
func (r *vmRun) spawnArgs(n int) []vval {
	if cap(r.argBuf) < n {
		r.argBuf = make([]vval, n)
	}
	r.argBuf = r.argBuf[:n]
	return r.argBuf
}

// getThread returns the state for a thread starting on c, recycled when
// one is free, so its cached frames are reused.
func (r *vmRun) getThread(c *sched.Ctx) *vmThread {
	if n := len(r.threads); n > 0 {
		t := r.threads[n-1]
		r.threads = r.threads[:n-1]
		t.c = c
		return t
	}
	return &vmThread{c: c, cp: r.cp, run: r, in: r.in}
}

// putThread recycles the state of a finished thread. It never races on
// the free list: a thread recycles its own state while it holds the
// baton, or during teardown, which aborts parked threads one at a time
// and waits for each goroutine to exit before poking the next
// (sched.(*Scheduler).teardown), so at most one thread touches the
// run's state at any moment.
func (r *vmRun) putThread(t *vmThread) {
	t.c = nil
	r.threads = append(r.threads, t)
}

func (r *vmRun) getField(o *object.Obj, id int) (vval, bool) {
	i := int(o.ID)
	if i < len(r.heap) && id < len(r.heap[i]) {
		v := r.heap[i][id]
		return v, v.kind != vUnset
	}
	return vval{}, false
}

func (r *vmRun) setField(o *object.Obj, id int, v vval) {
	i := int(o.ID)
	for len(r.heap) <= i {
		r.heap = append(r.heap, nil)
	}
	if r.heap[i] == nil {
		r.heap[i] = make([]vval, len(r.cp.fields))
	}
	r.heap[i][id] = v
}

// vmThread executes bytecode for one simulated thread. frames is its
// CLF call stack, innermost last. Frames stay cached in frames' backing
// array past the live depth, so a call reuses the frame last used at its
// depth and neither a return nor an abort has anything to recycle.
type vmThread struct {
	c      *sched.Ctx
	cp     *compiledProg
	run    *vmRun
	in     *Interp
	frames []*vmFrame
}

// start runs fn(args) as the thread's outermost call, entered at site.
// exit is the thread's one defer: it retires whatever frames a runtime
// error or an abort leaves open, then recycles the thread.
func (t *vmThread) start(fn *compiledFunc, args []vval, site event.Loc) {
	defer t.exit()
	t.push(fn, args, site)
	t.exec()
}

// push opens a frame for fn with args copied in and posts its Call. The
// frame is pushed before the post, so an unwind from there retires it.
// A reused frame is cleared first, which also drops the references its
// previous use left behind.
func (t *vmThread) push(fn *compiledFunc, args []vval, site event.Loc) *vmFrame {
	n := len(t.frames)
	if n < cap(t.frames) {
		t.frames = t.frames[:n+1]
	} else {
		t.frames = append(t.frames, nil)
	}
	f := t.frames[n]
	if f == nil {
		f = &vmFrame{}
		t.frames[n] = f
	}
	if cap(f.slots) < fn.frame {
		f.slots = make([]vval, fn.frame)
	} else {
		f.slots = f.slots[:fn.frame]
		clear(f.slots)
	}
	copy(f.slots, args)
	f.fn, f.site, f.syncs = fn, site, f.syncs[:0]
	t.c.Enter(fn.name, nil, site)
	return f
}

// pop retires the innermost frame: it releases the frame's open sync
// blocks innermost-first (only an unwind finds any — compiled returns
// close theirs), then posts its Return. Each sync, and then the frame,
// leaves its stack before the post that retires it, so the stacks stay
// consistent at every scheduling point.
func (t *vmThread) pop() {
	n := len(t.frames) - 1
	f := t.frames[n]
	for i := len(f.syncs) - 1; i >= 0; i-- {
		s := f.syncs[i]
		f.syncs = f.syncs[:i]
		t.c.Release(s.obj, s.loc)
	}
	t.frames = t.frames[:n]
	t.c.Return(f.fn.name, f.site)
}

// exit ends the thread's execution and recycles its state. After a
// normal return no frame is open; after a runtime error it retires the
// open frames innermost-first. Those posts are real scheduling points,
// interleaving with other threads as the walker's deferred posts do,
// and the RuntimeError then continues to sched's Thread.run. After an
// abort every post would be silent, so exit just truncates the stack:
// O(1) at any depth. No recover is needed: exit runs during the panic.
// Should teardown abort the thread while it is parked at one of a
// runtime-error unwind's posts (the run ended in the meantime), the new
// panic cuts the walk short and the thread state is dropped to the
// garbage collector instead of the pool.
func (t *vmThread) exit() {
	if t.c.Aborted() {
		t.frames = t.frames[:0]
	}
	for len(t.frames) > 0 {
		t.pop()
	}
	t.run.putThread(t)
}

// exec is the dispatch loop. It runs the innermost frame until the
// outermost one returns, switching frames in place at opCall and
// opReturn. st is the current frame's slot array: named variables in
// [0, nslots), the operand stack above them.
func (t *vmThread) exec() {
	f := t.frames[len(t.frames)-1]
	code := f.fn.code
	st := f.slots
	sp := f.fn.nslots
	for pc := 0; ; pc++ {
		in := &code[pc]
		switch in.op {
		case opConst:
			st[sp] = in.val
			sp++
		case opLoad:
			st[sp] = st[in.a]
			sp++
		case opStore:
			sp--
			st[in.a] = st[sp]
		case opJump:
			pc = int(in.a) - 1
		case opBrFalse:
			sp--
			v := st[sp]
			if v.kind != vBool {
				panic(rtErrf(in.pos, "expected bool, got %s", vtype(v)))
			}
			if v.i == 0 {
				pc = int(in.a) - 1
			}
		case opBrTrue:
			sp--
			v := st[sp]
			if v.kind != vBool {
				panic(rtErrf(in.pos, "expected bool, got %s", vtype(v)))
			}
			if v.i != 0 {
				pc = int(in.a) - 1
			}
		case opNot:
			v := &st[sp-1]
			if v.kind != vBool {
				panic(rtErrf(in.pos, "expected bool, got %s", vtype(*v)))
			}
			v.i = 1 - v.i
		case opNeg:
			v := &st[sp-1]
			if v.kind != vInt {
				panic(rtErrf(in.pos, "expected int, got %s", vtype(*v)))
			}
			v.i = -v.i
		case opBinop:
			sp--
			l := &st[sp-1]
			if l.kind == vInt && st[sp].kind == vInt && intBinop(TokKind(in.a), l, st[sp].i) {
				continue
			}
			*l = t.binop(TokKind(in.a), *l, st[sp], in.pos)
		case opBinopK:
			l := &st[sp-1]
			if l.kind == vInt && in.val.kind == vInt && intBinop(TokKind(in.a), l, in.val.i) {
				continue
			}
			*l = t.binop(TokKind(in.a), *l, in.val, in.pos)
		case opBinopS:
			l := &st[sp-1]
			r := &st[in.b]
			if l.kind == vInt && r.kind == vInt && intBinop(TokKind(in.a), l, r.i) {
				continue
			}
			*l = t.binop(TokKind(in.a), *l, *r, in.pos)
		case opBinopKS:
			sp--
			d := &st[in.b]
			*d = st[sp]
			if d.kind == vInt && in.val.kind == vInt && intBinop(TokKind(in.a), d, in.val.i) {
				continue
			}
			*d = t.binop(TokKind(in.a), *d, in.val, in.pos)
		case opBinopSS:
			sp--
			// Copy the right operand before writing the destination: the
			// two slots may alias (`h = i * h`).
			r := st[in.val.i]
			d := &st[in.b]
			*d = st[sp]
			if d.kind == vInt && r.kind == vInt && intBinop(TokKind(in.a), d, r.i) {
				continue
			}
			*d = t.binop(TokKind(in.a), *d, r, in.pos)
		case opEq:
			sp--
			eq := vvalEq(st[sp-1], st[sp])
			if in.a != 0 {
				eq = !eq
			}
			st[sp-1] = vval{kind: vBool, i: b2i(eq)}
		case opPop:
			sp--
		case opPrint:
			n := int(in.a)
			sp -= n
			parts := make([]string, n)
			for i := 0; i < n; i++ {
				parts[i] = vformat(st[sp+i])
			}
			fmt.Fprintln(t.in.out, strings.Join(parts, " "))
		case opBoolChk:
			if v := st[sp-1]; v.kind != vBool {
				panic(rtErrf(in.pos, "expected bool, got %s", vtype(v)))
			}
		case opIntChk:
			if v := st[sp-1]; v.kind != vInt {
				panic(rtErrf(in.pos, "expected int, got %s", vtype(v)))
			}
		case opChanChk:
			if v := st[sp-1]; v.kind != vRef {
				panic(rtErrf(in.pos, "expected chan, got %s", vtype(v)))
			} else if _, ok := v.ref.(*sched.Chan); !ok {
				panic(rtErrf(in.pos, "expected chan, got %s", vtype(v)))
			}
		case opWGChk:
			if v := st[sp-1]; v.kind != vRef {
				panic(rtErrf(in.pos, "expected waitgroup, got %s", vtype(v)))
			} else if _, ok := v.ref.(*sched.WaitGroup); !ok {
				panic(rtErrf(in.pos, "expected waitgroup, got %s", vtype(v)))
			}
		case opNewObj:
			st[sp] = vval{kind: vRef, ref: t.c.New(in.val.s, in.loc)}
			sp++
		case opNewLatch:
			st[sp] = vval{kind: vRef, ref: t.c.NewLatch(in.loc)}
			sp++
		case opNewWG:
			st[sp] = vval{kind: vRef, ref: t.c.NewWaitGroup(in.loc)}
			sp++
		case opNewChan:
			capacity := int64(0)
			if in.a != 0 {
				sp--
				capacity = st[sp].i // pre-checked by opIntChk
				if capacity < 0 {
					panic(rtErrf(in.pos, "newchan(%d): negative capacity", capacity))
				}
			}
			st[sp] = vval{kind: vRef, ref: t.c.NewChan(int(capacity), in.loc)}
			sp++
		case opRecv:
			ch := t.asChan(st[sp-1], in.pos)
			st[sp-1] = fromValue(t.c.Recv(ch, in.loc))
		case opSend:
			var v vval
			if in.a != 0 {
				sp--
				v = st[sp]
			} else {
				v = vval{kind: vNil}
			}
			sp--
			ch := st[sp].ref.(*sched.Chan) // pre-checked by opChanChk
			t.c.Send(ch, toValue(v), in.loc)
		case opClose:
			sp--
			t.c.Close(t.asChan(st[sp], in.pos), in.loc)
		case opWGAdd:
			sp -= 2
			wg := st[sp].ref.(*sched.WaitGroup) // pre-checked by opWGChk
			t.c.WGAdd(wg, int(st[sp+1].i), in.loc)
		case opWGDone:
			sp--
			t.c.WGDone(t.asWG(st[sp], in.pos), in.loc)
		case opWGWait:
			sp--
			t.c.WGWait(t.asWG(st[sp], in.pos), in.loc)
		case opSyncEnter:
			sp--
			o := t.asObject(st[sp], in.pos)
			t.c.Acquire(o, in.loc)
			f.syncs = append(f.syncs, syncEnt{obj: o, loc: in.loc})
		case opSyncExit:
			s := f.syncs[len(f.syncs)-1]
			f.syncs = f.syncs[:len(f.syncs)-1]
			t.c.Release(s.obj, s.loc)
		case opWork:
			sp--
			n := st[sp].i // pre-checked by opIntChk
			if n < 0 {
				panic(rtErrf(in.pos, "work(%d): negative amount", n))
			}
			t.c.Work(int(n), in.loc)
		case opStep:
			t.c.Step(in.loc)
		case opJoin:
			sp--
			v := st[sp]
			th, ok := v.ref.(*sched.Thread)
			if v.kind != vRef || !ok {
				panic(rtErrf(in.pos, "join requires a thread, got %s", vtype(v)))
			}
			t.c.Join(th, in.loc)
		case opAwait:
			sp--
			t.c.Await(t.asLatch(st[sp], in.pos), in.loc)
		case opSignal:
			sp--
			t.c.Signal(t.asLatch(st[sp], in.pos), in.loc)
		case opWaitOn:
			sp--
			t.c.Wait(t.asObject(st[sp], in.pos), in.loc)
		case opNotify:
			sp--
			o := t.asObject(st[sp], in.pos)
			if in.a != 0 {
				t.c.NotifyAll(o, in.loc)
			} else {
				t.c.Notify(o, in.loc)
			}
		case opFieldGet:
			o := t.asFieldOwner(st[sp-1], in.pos)
			v, ok := t.run.getField(o, int(in.a))
			if !ok {
				panic(rtErrf(in.pos, "read of unset field %s.%s", o.Type, t.cp.fields[in.a]))
			}
			st[sp-1] = v
		case opFieldOwner:
			t.asFieldOwner(st[sp-1], in.pos)
		case opFieldSet:
			sp -= 2
			o := st[sp].ref.(*object.Obj) // pre-checked by opFieldOwner
			t.run.setField(o, int(in.a), st[sp+1])
		case opCall:
			n := int(in.b)
			sp -= n
			if len(t.frames) >= maxCallDepth {
				panic(rtErrf(in.pos, "call depth exceeds %d (runaway recursion?)", maxCallDepth))
			}
			f.pc, f.sp = pc, sp
			f = t.push(t.cp.funcs[in.a], st[sp:sp+n], in.loc)
			code, st, sp, pc = f.fn.code, f.slots, f.fn.nslots, -1
		case opSpawn:
			n := int(in.b)
			sp -= n
			args := t.run.spawnArgs(n)
			copy(args, st[sp:sp+n])
			fn, run := t.cp.funcs[in.a], t.run
			run.addRef()
			th := t.c.Spawn(fn.name, nil, in.loc, func(c *sched.Ctx) {
				defer run.release()
				run.getThread(c).start(fn, args, in.loc)
			})
			st[sp] = vval{kind: vRef, ref: th}
			sp++
		case opReturn:
			ret := vval{kind: vNil}
			if in.a != 0 {
				ret = st[sp-1]
			}
			t.pop()
			if len(t.frames) == 0 {
				return
			}
			f = t.frames[len(t.frames)-1]
			code, st, sp, pc = f.fn.code, f.slots, f.sp, f.pc
			st[sp] = ret
			sp++
		default:
			panic(fmt.Sprintf("lang: unknown opcode %d", in.op))
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// binop applies a non-shortcut binary operator with the walker's typing
// rules: string concatenation when the left operand of + is a string,
// otherwise integer arithmetic and ordering.
// intBinop applies op in place on all-int operands, the dispatch loop's
// fast path: arithmetic mutates l.i directly (an int vval's other
// fields are zero by construction, so the result is identical to a
// fresh vval), comparisons overwrite l whole. It declines — returning
// false with l untouched — for the cases that need binop's error
// handling (division by zero) or are not pure int ops at all.
func intBinop(op TokKind, l *vval, r int64) bool {
	switch op {
	case TokPlus:
		l.i += r
	case TokMinus:
		l.i -= r
	case TokStar:
		l.i *= r
	case TokSlash:
		if r == 0 {
			return false
		}
		l.i /= r
	case TokPercent:
		if r == 0 {
			return false
		}
		l.i %= r
	case TokLt:
		*l = vval{kind: vBool, i: b2i(l.i < r)}
	case TokLe:
		*l = vval{kind: vBool, i: b2i(l.i <= r)}
	case TokGt:
		*l = vval{kind: vBool, i: b2i(l.i > r)}
	case TokGe:
		*l = vval{kind: vBool, i: b2i(l.i >= r)}
	default:
		return false
	}
	return true
}

func (t *vmThread) binop(op TokKind, l, r vval, pos Pos) vval {
	if op == TokPlus && l.kind == vStr {
		return vval{kind: vStr, s: l.s + vformat(r)}
	}
	if l.kind != vInt || r.kind != vInt {
		panic(rtErrf(pos, "operator %s requires ints, got %s and %s", op, vtype(l), vtype(r)))
	}
	switch op {
	case TokPlus:
		return vval{kind: vInt, i: l.i + r.i}
	case TokMinus:
		return vval{kind: vInt, i: l.i - r.i}
	case TokStar:
		return vval{kind: vInt, i: l.i * r.i}
	case TokSlash:
		if r.i == 0 {
			panic(rtErrf(pos, "division by zero"))
		}
		return vval{kind: vInt, i: l.i / r.i}
	case TokPercent:
		if r.i == 0 {
			panic(rtErrf(pos, "division by zero"))
		}
		return vval{kind: vInt, i: l.i % r.i}
	case TokLt:
		return vval{kind: vBool, i: b2i(l.i < r.i)}
	case TokLe:
		return vval{kind: vBool, i: b2i(l.i <= r.i)}
	case TokGt:
		return vval{kind: vBool, i: b2i(l.i > r.i)}
	case TokGe:
		return vval{kind: vBool, i: b2i(l.i >= r.i)}
	default:
		panic(fmt.Sprintf("lang: unknown binary op %v", op))
	}
}

// asObject mirrors evalObject: any lockable value yields its monitor
// object.
func (t *vmThread) asObject(v vval, pos Pos) *object.Obj {
	if v.kind == vRef {
		switch r := v.ref.(type) {
		case *object.Obj:
			return r
		case *sched.Latch:
			return r.Obj()
		case *sched.Thread:
			return r.Obj()
		case *sched.Chan:
			return r.Obj()
		case *sched.WaitGroup:
			return r.Obj()
		}
	}
	panic(rtErrf(pos, "sync requires an object, got %s", vtype(v)))
}

// asFieldOwner mirrors evalFieldOwner: only plain objects carry fields.
func (t *vmThread) asFieldOwner(v vval, pos Pos) *object.Obj {
	if v.kind == vRef {
		if o, ok := v.ref.(*object.Obj); ok {
			return o
		}
	}
	panic(rtErrf(pos, "field access requires an object, got %s", vtype(v)))
}

func (t *vmThread) asChan(v vval, pos Pos) *sched.Chan {
	if v.kind == vRef {
		if ch, ok := v.ref.(*sched.Chan); ok {
			return ch
		}
	}
	panic(rtErrf(pos, "expected chan, got %s", vtype(v)))
}

func (t *vmThread) asWG(v vval, pos Pos) *sched.WaitGroup {
	if v.kind == vRef {
		if wg, ok := v.ref.(*sched.WaitGroup); ok {
			return wg
		}
	}
	panic(rtErrf(pos, "expected waitgroup, got %s", vtype(v)))
}

func (t *vmThread) asLatch(v vval, pos Pos) *sched.Latch {
	if v.kind == vRef {
		if l, ok := v.ref.(*sched.Latch); ok {
			return l
		}
	}
	panic(rtErrf(pos, "expected latch, got %s", vtype(v)))
}
