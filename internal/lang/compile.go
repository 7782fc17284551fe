package lang

// The CLF bytecode compiler. compile lowers a resolved AST into flat
// instruction streams: one compiledFunc per declaration, each a slice of
// slot-addressed instructions with pre-rendered event.Loc labels and the
// exact source positions the tree-walker would report in runtime errors.
// The VM (vm.go) executes the streams; byte-identity with the walker is
// the contract, so every instruction documents which interp.go path it
// mirrors, including evaluation order and error positions.

import (
	"fmt"

	"dlfuzz/internal/event"
)

type opcode uint8

const (
	opConst      opcode = iota // push in.val
	opLoad                     // push slots[in.a]
	opStore                    // slots[in.a] = pop (var decl and assignment)
	opJump                     // pc = in.a
	opBrFalse                  // pop; must be bool (error at in.pos); jump to in.a when false
	opBrTrue                   // pop; must be bool; jump to in.a when true
	opNot                      // pop; must be bool (error at operand pos); push negation
	opNeg                      // pop; must be int (error at operand pos); push negation
	opBinop                    // pop r, pop l; apply TokKind(in.a); errors at in.pos
	opBinopK                   // pop l; apply TokKind(in.a) with constant right operand in.val
	opBinopS                   // pop l; apply TokKind(in.a) with right operand slots[in.b]
	opBinopKS                  // opBinopK storing the result in slots[in.b] instead of pushing
	opBinopSS                  // opBinopS (right operand slots[in.val.i]) storing into slots[in.b]
	opEq                       // pop r, pop l; push equality (in.a != 0 negates)
	opPop                      // discard top (ExprStmt)
	opPrint                    // pop in.a args; print space-joined + newline
	opBoolChk                  // top must be bool; error at in.pos (evalBool of a subexpression)
	opIntChk                   // top must be int; error at in.pos (evalInt of a subexpression)
	opChanChk                  // top must be chan; error at in.pos (evalChan before a later operand)
	opWGChk                    // top must be waitgroup; error at in.pos
	opNewObj                   // c.New(in.val.s, in.loc); push
	opNewLatch                 // c.NewLatch(in.loc); push
	opNewWG                    // c.NewWaitGroup(in.loc); push
	opNewChan                  // in.a != 0: pop capacity (int-checked; negative error at in.pos); c.NewChan; push
	opRecv                     // pop chan (error at in.pos); c.Recv(in.loc); push
	opSend                     // pop value if in.a != 0 (else nil), pop chan (pre-checked); c.Send(in.loc)
	opClose                    // pop chan (error at in.pos); c.Close(in.loc)
	opWGAdd                    // pop n (pre-checked int), pop wg (pre-checked); c.WGAdd(in.loc)
	opWGDone                   // pop wg (error at in.pos); c.WGDone(in.loc)
	opWGWait                   // pop wg (error at in.pos); c.WGWait(in.loc)
	opSyncEnter                // pop lockable (error at in.pos); c.Acquire(in.loc); push sync stack
	opSyncExit                 // pop sync stack; c.Release
	opWork                     // pop n (pre-checked int; negative error at in.pos); c.Work(in.loc)
	opStep                     // c.Step(in.loc) — while-loop back edge
	opJoin                     // pop thread (error at in.pos); c.Join(in.loc)
	opAwait                    // pop latch (error at in.pos); c.Await(in.loc)
	opSignal                   // pop latch (error at in.pos); c.Signal(in.loc)
	opWaitOn                   // pop lockable (error at in.pos); c.Wait(in.loc)
	opNotify                   // pop lockable (error at in.pos); c.Notify/NotifyAll (in.a = all)
	opFieldGet                 // pop object (error at in.pos); push field in.a ("unset" error at in.pos)
	opFieldOwner               // pop; must be a plain object (error at in.pos); push back
	opFieldSet                 // pop value, pop object (pre-checked); write field in.a
	opCall                     // pop in.b args; invoke funcs[in.a]; push result
	opSpawn                    // pop in.b args; c.Spawn funcs[in.a]; push thread handle
	opReturn                   // return pop if in.a != 0, else nil
)

// instr is one VM instruction. The operand fields are wide but flat: the
// dispatch loop reads one record and never chases AST pointers.
type instr struct {
	op  opcode
	a   int32     // slot / jump target / field id / func index / flag / TokKind
	b   int32     // argument count (opCall, opSpawn)
	val vval      // literal payload (opConst); type name in val.s (opNewObj)
	loc event.Loc // pre-rendered "file:line" label for scheduling points
	pos Pos       // source position for runtime errors
}

// compiledFunc is one lowered function.
type compiledFunc struct {
	name    string
	nparams int
	nslots  int // named-variable slots; the operand stack starts here
	frame   int // nslots + deepest operand-stack use
	code    []instr
	declLoc event.Loc // declaration label: main's call site
}

// compiledProg is the bytecode form of a Program.
type compiledProg struct {
	funcs  []*compiledFunc
	main   *compiledFunc
	fields []string // interned field names, for "unset field" messages
}

// compile lowers a resolved program, caching the result on the Program.
func (p *Program) compile() *compiledProg {
	p.compileOnce.Do(func() {
		cp := &compiledProg{fields: p.fields}
		for _, f := range p.Funcs {
			cp.funcs = append(cp.funcs, compileFunc(f))
		}
		cp.main = cp.funcs[p.funcIdx["main"]]
		p.compiled = cp
	})
	return p.compiled
}

// fnCompiler emits one function's instruction stream, tracking the
// operand-stack depth (for frame sizing) and the statically-known stack
// of open sync blocks (so `return` can release them in unwind order).
type fnCompiler struct {
	code     []instr
	depth    int // current operand-stack depth (conservative on joins)
	maxDepth int
	syncs    int // open sync blocks at this point in the function
	fence    int // highest recorded jump target; fusion must not cross it
}

func compileFunc(f *FuncDecl) *compiledFunc {
	c := &fnCompiler{}
	c.block(f.Body)
	// Falling off the end returns nil, like the tree-walker's callFunction
	// when no return statement unwinds.
	c.emit(instr{op: opReturn}, 0)
	return &compiledFunc{
		name:    f.Name,
		nparams: len(f.Params),
		nslots:  f.numSlots,
		frame:   f.numSlots + c.maxDepth,
		code:    c.code,
		declLoc: loc(f.Pos),
	}
}

// emit appends an instruction whose net operand-stack effect is delta.
// The depth bookkeeping is conservative across branch joins (both arms
// of &&/|| are counted), which can only oversize the frame, never
// undersize it.
func (c *fnCompiler) emit(in instr, delta int) int {
	c.code = append(c.code, in)
	c.depth += delta
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
	return len(c.code) - 1
}

// patch sets the jump target of the branch emitted at index i. The
// target index becomes a fence: a later fusion must not swallow the
// instruction a branch lands on.
func (c *fnCompiler) patch(i int) {
	c.code[i].a = int32(len(c.code))
	if len(c.code) > c.fence {
		c.fence = len(c.code)
	}
}

func loc(p Pos) event.Loc { return event.Loc(p.Loc()) }

func (c *fnCompiler) block(b *Block) {
	for _, s := range b.Stmts {
		c.stmt(s)
	}
}

func (c *fnCompiler) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		c.block(s)

	case *VarStmt:
		c.expr(s.Init)
		c.emitStore(s.slot)

	case *AssignStmt:
		c.expr(s.Val)
		c.emitStore(s.slot)

	case *SyncStmt:
		// evalObject's error position is the lock expression's own.
		c.expr(s.Lock)
		c.emit(instr{op: opSyncEnter, pos: s.Lock.exprPos(), loc: loc(s.Pos)}, -1)
		c.syncs++
		c.block(s.Body)
		c.syncs--
		c.emit(instr{op: opSyncExit}, 0)

	case *IfStmt:
		c.expr(s.Cond)
		br := c.emit(instr{op: opBrFalse, pos: s.Cond.exprPos()}, -1)
		c.block(s.Then)
		if s.Else == nil {
			c.patch(br)
			return
		}
		end := c.emit(instr{op: opJump}, 0)
		c.patch(br)
		c.stmt(s.Else)
		c.patch(end)

	case *WhileStmt:
		top := len(c.code)
		c.expr(s.Cond)
		br := c.emit(instr{op: opBrFalse, pos: s.Cond.exprPos()}, -1)
		c.block(s.Body)
		// The back edge is a scheduling point, exactly as in the walker.
		c.emit(instr{op: opStep, loc: loc(s.Pos)}, 0)
		c.emit(instr{op: opJump, a: int32(top)}, 0)
		c.patch(br)

	case *WorkStmt:
		c.expr(s.N)
		// evalInt errors at the operand's position; the negative-amount
		// error at the statement's.
		c.emit(instr{op: opIntChk, pos: s.N.exprPos()}, 0)
		c.emit(instr{op: opWork, pos: s.Pos, loc: loc(s.Pos)}, -1)

	case *JoinStmt:
		c.expr(s.Thread)
		c.emit(instr{op: opJoin, pos: s.Pos, loc: loc(s.Pos)}, -1)

	case *AwaitStmt:
		c.expr(s.Latch)
		c.emit(instr{op: opAwait, pos: s.Pos, loc: loc(s.Pos)}, -1)

	case *SignalStmt:
		c.expr(s.Latch)
		c.emit(instr{op: opSignal, pos: s.Pos, loc: loc(s.Pos)}, -1)

	case *WaitStmt:
		c.expr(s.Obj)
		c.emit(instr{op: opWaitOn, pos: s.Obj.exprPos(), loc: loc(s.Pos)}, -1)

	case *NotifyStmt:
		c.expr(s.Obj)
		all := int32(0)
		if s.All {
			all = 1
		}
		c.emit(instr{op: opNotify, a: all, pos: s.Obj.exprPos(), loc: loc(s.Pos)}, -1)

	case *SendStmt:
		// The walker checks the channel (at the statement position)
		// before evaluating the value.
		c.expr(s.Ch)
		c.emit(instr{op: opChanChk, pos: s.Pos}, 0)
		hasVal := int32(0)
		if s.Val != nil {
			c.expr(s.Val)
			hasVal = 1
		}
		c.emit(instr{op: opSend, a: hasVal, loc: loc(s.Pos)}, -1-int(hasVal))

	case *CloseStmt:
		c.expr(s.Ch)
		c.emit(instr{op: opClose, pos: s.Pos, loc: loc(s.Pos)}, -1)

	case *WGAddStmt:
		c.expr(s.WG)
		c.emit(instr{op: opWGChk, pos: s.Pos}, 0)
		c.expr(s.N)
		c.emit(instr{op: opIntChk, pos: s.N.exprPos()}, 0)
		c.emit(instr{op: opWGAdd, loc: loc(s.Pos)}, -2)

	case *WGDoneStmt:
		c.expr(s.WG)
		c.emit(instr{op: opWGDone, pos: s.Pos, loc: loc(s.Pos)}, -1)

	case *WGWaitStmt:
		c.expr(s.WG)
		c.emit(instr{op: opWGWait, pos: s.Pos, loc: loc(s.Pos)}, -1)

	case *FieldAssignStmt:
		// evalFieldOwner (error at the statement position) runs before
		// the value is evaluated.
		c.expr(s.Obj)
		c.emit(instr{op: opFieldOwner, pos: s.Pos}, 0)
		c.expr(s.Val)
		c.emit(instr{op: opFieldSet, a: int32(s.fieldID)}, -2)

	case *ReturnStmt:
		hasVal := int32(0)
		if s.Val != nil {
			c.expr(s.Val)
			hasVal = 1
		}
		// The walker's returnSignal unwinds through the deferred Releases
		// of every open sync block, innermost first, before the call
		// returns; sync nesting is lexical, so the same releases can be
		// emitted statically.
		for i := 0; i < c.syncs; i++ {
			c.emit(instr{op: opSyncExit}, 0)
		}
		c.emit(instr{op: opReturn, a: hasVal}, -int(hasVal))

	case *PrintStmt:
		for _, a := range s.Args {
			c.expr(a)
		}
		c.emit(instr{op: opPrint, a: int32(len(s.Args))}, -len(s.Args))

	case *ExprStmt:
		c.expr(s.X)
		c.emit(instr{op: opPop}, -1)

	default:
		panic(fmt.Sprintf("lang: unknown statement %T", s))
	}
}

func (c *fnCompiler) expr(e Expr) {
	switch e := e.(type) {
	case *IntLit:
		c.emit(instr{op: opConst, val: vval{kind: vInt, i: e.Val}}, 1)
	case *BoolLit:
		v := vval{kind: vBool}
		if e.Val {
			v.i = 1
		}
		c.emit(instr{op: opConst, val: v}, 1)
	case *StrLit:
		c.emit(instr{op: opConst, val: vval{kind: vStr, s: e.Val}}, 1)
	case *NilLit:
		c.emit(instr{op: opConst, val: vval{kind: vNil}}, 1)
	case *Ident:
		c.emit(instr{op: opLoad, a: int32(e.slot)}, 1)
	case *NewExpr:
		c.emit(instr{op: opNewObj, val: vval{s: e.Type}, loc: loc(e.Pos)}, 1)
	case *NewLatchExpr:
		c.emit(instr{op: opNewLatch, loc: loc(e.Pos)}, 1)
	case *NewWGExpr:
		c.emit(instr{op: opNewWG, loc: loc(e.Pos)}, 1)
	case *NewChanExpr:
		if e.Cap == nil {
			c.emit(instr{op: opNewChan, pos: e.Pos, loc: loc(e.Pos)}, 1)
			return
		}
		c.expr(e.Cap)
		// evalInt errors at the capacity expression; the negative-capacity
		// error at the newchan expression.
		c.emit(instr{op: opIntChk, pos: e.Cap.exprPos()}, 0)
		c.emit(instr{op: opNewChan, a: 1, pos: e.Pos, loc: loc(e.Pos)}, 0)
	case *RecvExpr:
		c.expr(e.Ch)
		c.emit(instr{op: opRecv, pos: e.Pos, loc: loc(e.Pos)}, 0)
	case *CallExpr:
		for _, a := range e.Args {
			c.expr(a)
		}
		c.emit(instr{op: opCall, a: int32(e.funcIdx), b: int32(len(e.Args)), pos: e.Pos, loc: loc(e.Pos)},
			1-len(e.Args))
	case *SpawnExpr:
		for _, a := range e.Call.Args {
			c.expr(a)
		}
		c.emit(instr{op: opSpawn, a: int32(e.Call.funcIdx), b: int32(len(e.Call.Args)), pos: e.Pos, loc: loc(e.Pos)},
			1-len(e.Call.Args))
	case *FieldExpr:
		c.expr(e.Obj)
		c.emit(instr{op: opFieldGet, a: int32(e.fieldID), pos: e.Pos}, 0)
	case *UnaryExpr:
		c.expr(e.X)
		switch e.Op {
		case TokBang:
			c.emit(instr{op: opNot, pos: e.X.exprPos()}, 0)
		case TokMinus:
			c.emit(instr{op: opNeg, pos: e.X.exprPos()}, 0)
		default:
			panic(fmt.Sprintf("lang: unknown unary op %v", e.Op))
		}
	case *BinaryExpr:
		c.binary(e)
	default:
		panic(fmt.Sprintf("lang: unknown expression %T", e))
	}
}

// binary compiles a binary expression, preserving the walker's shortcut
// evaluation for && and || (each operand bool-checked at its own
// position, the right one only when reached).
func (c *fnCompiler) binary(e *BinaryExpr) {
	switch e.Op {
	case TokAndAnd:
		c.expr(e.L)
		br := c.emit(instr{op: opBrFalse, pos: e.L.exprPos()}, -1)
		c.expr(e.R)
		c.emit(instr{op: opBoolChk, pos: e.R.exprPos()}, 0)
		end := c.emit(instr{op: opJump}, 0)
		c.patch(br)
		c.emit(instr{op: opConst, val: vval{kind: vBool}}, 1)
		c.patch(end)
		// Both arms push one value; the linear count above over-reports
		// by one, which only pads the frame.
		c.depth--
	case TokOrOr:
		c.expr(e.L)
		br := c.emit(instr{op: opBrTrue, pos: e.L.exprPos()}, -1)
		c.expr(e.R)
		c.emit(instr{op: opBoolChk, pos: e.R.exprPos()}, 0)
		end := c.emit(instr{op: opJump}, 0)
		c.patch(br)
		c.emit(instr{op: opConst, val: vval{kind: vBool, i: 1}}, 1)
		c.patch(end)
		c.depth--
	case TokEq:
		c.expr(e.L)
		c.expr(e.R)
		c.emit(instr{op: opEq}, -1)
	case TokNeq:
		c.expr(e.L)
		c.expr(e.R)
		c.emit(instr{op: opEq, a: 1}, -1)
	default:
		c.expr(e.L)
		c.expr(e.R)
		c.fuseBinop(e.Op, e.Pos)
	}
}

// fuseBinop emits the instruction for a non-shortcut binary operator,
// folding a single-instruction right operand — a literal or a variable
// load — into the operation itself: opConst+opBinop becomes opBinopK
// and opLoad+opBinop becomes opBinopS, halving dispatches on the
// arithmetic statements that dominate compute-heavy programs. Operand
// order, type checks and error positions are unchanged, so the fused
// forms are observationally identical to the two-instruction pair. The
// fence check keeps a fusion from swallowing a recorded jump target: a
// shortcut operand ends with a patched join whose target is exactly the
// index the binop would occupy, and fusing there would let the branch
// skip the operation.
func (c *fnCompiler) fuseBinop(op TokKind, pos Pos) {
	if n := len(c.code); n > c.fence {
		switch last := &c.code[n-1]; last.op {
		case opConst:
			*last = instr{op: opBinopK, a: int32(op), val: last.val, pos: pos}
			c.depth--
			return
		case opLoad:
			*last = instr{op: opBinopS, a: int32(op), b: last.a, pos: pos}
			c.depth--
			return
		}
	}
	c.emit(instr{op: opBinop, a: int32(op), pos: pos}, -1)
}

// emitStore emits the store for a var or assignment statement, folding
// it into an immediately preceding fused binop: `h = (h*31+i)%65521`
// compiles to Load/BinopK/BinopS/BinopKS — four instructions for four
// operations — instead of a push-pop pair per operation. On the error
// path the fused forms clobber the destination slot before the binop's
// panic where the split forms would not, but a runtime error abandons
// the execution (and the frame) wholesale, so the difference is
// unobservable. The fence rule is as in fuseBinop.
func (c *fnCompiler) emitStore(slot int) {
	if n := len(c.code); n > c.fence {
		switch last := &c.code[n-1]; last.op {
		case opBinopK:
			last.op = opBinopKS
			last.b = int32(slot)
			c.depth--
			return
		case opBinopS:
			last.op = opBinopSS
			last.val = vval{kind: vInt, i: int64(last.b)}
			last.b = int32(slot)
			c.depth--
			return
		}
	}
	c.emit(instr{op: opStore, a: int32(slot)}, -1)
}
