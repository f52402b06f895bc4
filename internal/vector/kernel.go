// Package vector is the bit-parallel kernel library: every element kind
// compiled to a plane-op kernel that evaluates N independent stimulus
// lanes at once — 64 lanes per machine word, as many words per plane as
// the run requests — with word-wide boolean instructions over a pair of
// bit planes (value/unknown) per node bit. Gates, mux/registers, wiring,
// comparisons and adders get native plane kernels; mul/alu/rom/ram get
// bit-sliced tables (bitsliced.go). The kernels are proven against the
// scalar element registry by exhaustive truth tables (kernel_test.go).
// The one step loop that runs them lives in internal/codegen, which
// reaches them through export.go and registers the "vector" engine name.
package vector

import (
	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// layout assigns every node a contiguous run of wide planes in a
// caller-owned numbering: node n's bit b lives at off[n]+b, and each plane
// is `words` machine-word pairs wide.
type layout struct {
	off []int32
}

// span locates one node's planes.
type span struct {
	node circuit.NodeID
	off  int32
	w    int32
}

func (l layout) span(c *circuit.Circuit, n circuit.NodeID) span {
	return span{node: n, off: l.off[n], w: int32(c.Nodes[n].Width)}
}

// newWidePlanes allocates n standalone planes of the given word width over
// one struct-of-arrays backing: all value words in one flat []uint64, all
// undefined words in another, plane p owning words [p*words, (p+1)*words).
func newWidePlanes(n, words int) []logic.WidePlane {
	v := make([]uint64, n*words)
	u := make([]uint64, n*words)
	ps := make([]logic.WidePlane, n)
	for p := range ps {
		lo, hi := p*words, (p+1)*words
		ps[p] = logic.WidePlane{V: v[lo:hi:hi], U: u[lo:hi:hi]}
	}
	return ps
}

// wideRow allocates w planes of the given word width holding s in every
// lane — the wide form of broadcastRow, used for kernel-internal state.
func wideRow(w, words int, s logic.State) []logic.WidePlane {
	row := newWidePlanes(w, words)
	for i := range row {
		row[i].Fill(s)
	}
	return row
}

func copyWide(dst, src logic.WidePlane) {
	copy(dst.V, src.V)
	copy(dst.U, src.U)
}

func zeroWide(dst logic.WidePlane) {
	for w := range dst.V {
		dst.V[w], dst.U[w] = 0, 0
	}
}

// kernel is one element compiled to a plane-op routine: run reads input
// planes from cur and writes every output plane in next, for all lanes at
// once, looping the proven single-word plane ops over the plane words.
// Kernels with internal state (DFF, latch, RAM) own it via closure; each
// element belongs to exactly one worker's stripe, so exactly one worker ever
// runs its kernel.
type kernel struct {
	eid  circuit.ElemID
	cost int64
	outs []span
	run  func(cur, next []logic.WidePlane)
	// state aliases the closure-captured plane rows of stateful kernels —
	// a flip-flop's previous clock and held output, a latch's output, a
	// RAM's memory array — so a checkpoint can read and restore them in
	// place (WidePlane copies share their backing words). laneState aliases
	// the per-lane scalar state of fallback kernels the same way.
	state     []logic.WidePlane
	laneState [][]logic.Value
}

// compileElem translates one element into its plane-op kernel. Gate,
// mux/register, wiring, comparison, adder and the table-driven functional
// kinds (mul, alu, rom, ram — see bitsliced.go) all get true bit-parallel
// kernels; any future kind falls back to per-lane scalar evaluation behind
// the same interface.
func compileElem(c *circuit.Circuit, el *circuit.Element, lay layout, lanes int) kernel {
	words := logic.PlaneWords(lanes)
	k := kernel{eid: el.ID, cost: el.Cost}
	for _, n := range el.Out {
		k.outs = append(k.outs, lay.span(c, n))
	}
	ins := make([]span, len(el.In))
	for i, n := range el.In {
		ins[i] = lay.span(c, n)
	}
	out := int(lay.off[el.Out[0]])
	w := c.Nodes[el.Out[0]].Width

	switch el.Kind {
	case circuit.KindBuf:
		k.run = compileGate(ins, out, w, words, opOr, false)
	case circuit.KindNot:
		k.run = compileGate(ins, out, w, words, opOr, true)
	case circuit.KindAnd:
		k.run = compileGate(ins, out, w, words, opAnd, false)
	case circuit.KindNand:
		k.run = compileGate(ins, out, w, words, opAnd, true)
	case circuit.KindOr:
		k.run = compileGate(ins, out, w, words, opOr, false)
	case circuit.KindNor:
		k.run = compileGate(ins, out, w, words, opOr, true)
	case circuit.KindXor:
		k.run = compileGate(ins, out, w, words, opXor, false)
	case circuit.KindXnor:
		k.run = compileGate(ins, out, w, words, opXor, true)

	case circuit.KindMux2:
		sel, a, b := int(ins[0].off), int(ins[1].off), int(ins[2].off)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				s := cur[sel].Word(wd)
				for i := 0; i < w; i++ {
					next[out+i].SetWord(wd, logic.PlaneMux(s, cur[a+i].Word(wd), cur[b+i].Word(wd)))
				}
			}
		}

	case circuit.KindDFF:
		clk, d := int(ins[0].off), int(ins[1].off)
		prevClk := wideRow(1, words, logic.X)[0]
		q := wideRow(w, words, logic.X)
		k.state = append([]logic.WidePlane{prevClk}, q...)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				c := cur[clk].Word(wd)
				edge := prevClk.Word(wd).LMask() & c.HMask()
				prevClk.SetWord(wd, c)
				for i := 0; i < w; i++ {
					qi := logic.PlaneSelect(edge, cur[d+i].Word(wd).Readable(), q[i].Word(wd))
					q[i].SetWord(wd, qi)
					next[out+i].SetWord(wd, qi)
				}
			}
		}

	case circuit.KindDFFR:
		clk, rst, d := int(ins[0].off), int(ins[1].off), int(ins[2].off)
		prevClk := wideRow(1, words, logic.X)[0]
		q := wideRow(w, words, logic.X)
		k.state = append([]logic.WidePlane{prevClk}, q...)
		initRow := make([]logic.Plane, w)
		logic.BroadcastValue(initRow, el.Params.Init)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				c := cur[clk].Word(wd)
				edge := prevClk.Word(wd).LMask() & c.HMask()
				prevClk.SetWord(wd, c)
				rstH := cur[rst].Word(wd).HMask()
				for i := 0; i < w; i++ {
					qi := logic.PlaneSelect(edge, cur[d+i].Word(wd).Readable(), q[i].Word(wd))
					qi = logic.PlaneSelect(rstH, initRow[i], qi)
					q[i].SetWord(wd, qi)
					next[out+i].SetWord(wd, qi)
				}
			}
		}

	case circuit.KindLatch:
		en, d := int(ins[0].off), int(ins[1].off)
		q := wideRow(w, words, logic.X)
		k.state = q
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				enH := cur[en].Word(wd).HMask()
				for i := 0; i < w; i++ {
					qi := logic.PlaneSelect(enH, cur[d+i].Word(wd).Readable(), q[i].Word(wd))
					q[i].SetWord(wd, qi)
					next[out+i].SetWord(wd, qi)
				}
			}
		}

	case circuit.KindTri:
		en, a := int(ins[0].off), int(ins[1].off)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				e := cur[en].Word(wd).Readable()
				enH, enL := e.HMask(), e.LMask()
				enX := ^(enH | enL)
				for i := 0; i < w; i++ {
					r := cur[a+i].Word(wd).Readable()
					next[out+i].SetWord(wd, logic.Plane{
						V: r.V&enH | enL,
						U: r.U&enH | enL | enX,
					})
				}
			}
		}

	case circuit.KindRes2:
		a, b := int(ins[0].off), int(ins[1].off)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				for i := 0; i < w; i++ {
					next[out+i].SetWord(wd, logic.PlaneResolve(cur[a+i].Word(wd), cur[b+i].Word(wd)))
				}
			}
		}

	case circuit.KindEq:
		a, b := int(ins[0].off), int(ins[1].off)
		aw := int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				diff, allKnown := uint64(0), ^uint64(0)
				for i := 0; i < aw; i++ {
					ra, rb := cur[a+i].Word(wd).Readable(), cur[b+i].Word(wd).Readable()
					known := ^(ra.U | rb.U)
					diff |= (ra.V ^ rb.V) & known
					allKnown &= known
				}
				next[out].SetWord(wd, logic.Plane{V: allKnown &^ diff, U: ^(diff | allKnown)})
			}
		}

	case circuit.KindLtU:
		a, b := int(ins[0].off), int(ins[1].off)
		aw := int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			// MSB-first ripple compare; lanes with any unknown bit poison
			// to X, matching the scalar Uint()-based evaluation.
			for wd := 0; wd < words; wd++ {
				unk, lt, eq := uint64(0), uint64(0), ^uint64(0)
				for i := aw - 1; i >= 0; i-- {
					ra, rb := cur[a+i].Word(wd).Readable(), cur[b+i].Word(wd).Readable()
					unk |= ra.U | rb.U
					lt |= eq & ^ra.V & rb.V
					eq &= ^(ra.V ^ rb.V)
				}
				next[out].SetWord(wd, logic.Plane{V: lt &^ unk, U: unk})
			}
		}

	case circuit.KindAdd:
		k.run = compileAdd(ins, out, w, words, false, -1)
	case circuit.KindSub:
		k.run = compileAdd(ins, out, w, words, true, -1)
	case circuit.KindAddC:
		coutOff := int(lay.off[el.Out[1]])
		k.run = compileAdd(ins, out, w, words, false, coutOff)

	case circuit.KindSlice:
		a := int(ins[0].off) + el.Params.Lo
		k.run = copyPlanes(a, out, w)
	case circuit.KindExt:
		a, aw := int(ins[0].off), int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			n := w
			if aw < n {
				n = aw
			}
			for i := 0; i < n; i++ {
				copyWide(next[out+i], cur[a+i])
			}
			for i := n; i < w; i++ {
				zeroWide(next[out+i])
			}
		}
	case circuit.KindConcat:
		lo, hi := int(ins[0].off), int(ins[1].off)
		low := int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			for i := 0; i < low; i++ {
				copyWide(next[out+i], cur[lo+i])
			}
			for i := low; i < w; i++ {
				copyWide(next[out+i], cur[hi+i-low])
			}
		}
	case circuit.KindShlK:
		a := int(ins[0].off)
		sh := el.Params.Shift
		k.run = func(cur, next []logic.WidePlane) {
			for i := w - 1; i >= sh; i-- {
				copyWide(next[out+i], cur[a+i-sh])
			}
			top := sh
			if top > w {
				top = w
			}
			for i := 0; i < top; i++ {
				zeroWide(next[out+i])
			}
		}
	case circuit.KindShrK:
		a := int(ins[0].off)
		sh := el.Params.Shift
		k.run = func(cur, next []logic.WidePlane) {
			for i := 0; i < w-sh; i++ {
				copyWide(next[out+i], cur[a+i+sh])
			}
			from := w - sh
			if from < 0 {
				from = 0
			}
			for i := from; i < w; i++ {
				zeroWide(next[out+i])
			}
		}

	case circuit.KindRedAnd:
		a, aw := int(ins[0].off), int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				someL, anyU := uint64(0), uint64(0)
				for i := 0; i < aw; i++ {
					r := cur[a+i].Word(wd).Readable()
					someL |= r.LMask()
					anyU |= r.U
				}
				next[out].SetWord(wd, logic.Plane{V: ^(someL | anyU), U: anyU &^ someL})
			}
		}
	case circuit.KindRedOr:
		a, aw := int(ins[0].off), int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				someH, anyU := uint64(0), uint64(0)
				for i := 0; i < aw; i++ {
					r := cur[a+i].Word(wd).Readable()
					someH |= r.HMask()
					anyU |= r.U
				}
				next[out].SetWord(wd, logic.Plane{V: someH, U: anyU &^ someH})
			}
		}
	case circuit.KindRedXor:
		a, aw := int(ins[0].off), int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				par, anyU := uint64(0), uint64(0)
				for i := 0; i < aw; i++ {
					r := cur[a+i].Word(wd).Readable()
					par ^= r.V
					anyU |= r.U
				}
				next[out].SetWord(wd, logic.Plane{V: par &^ anyU, U: anyU})
			}
		}

	case circuit.KindMul:
		k.run = compileMul(ins, out, w, words)
	case circuit.KindAlu:
		k.run = compileAlu(ins, out, w, words)
	case circuit.KindRom:
		k.run = compileRom(el, ins, out, w, words)
	case circuit.KindRam:
		k.run, k.state = compileRam(el, ins, out, w, words)

	default:
		// Per-lane scalar fallback for any future kind: correct for every
		// registry element, at scalar speed.
		k.run, k.laneState = compileScalar(el, ins, k.outs, lanes)
	}
	return k
}

func copyPlanes(src, dst, w int) func(cur, next []logic.WidePlane) {
	return func(cur, next []logic.WidePlane) {
		for i := 0; i < w; i++ {
			copyWide(next[dst+i], cur[src+i])
		}
	}
}

// gateOp names the fold operation of a logic gate; an enum rather than a
// func value so compileGate can pick the fused fast path per shape.
type gateOp int

const (
	opAnd gateOp = iota
	opOr
	opXor
)

func (op gateOp) plane(a, b logic.Plane) logic.Plane {
	switch op {
	case opAnd:
		return logic.PlaneAnd(a, b)
	case opXor:
		return logic.PlaneXor(a, b)
	}
	return logic.PlaneOr(a, b)
}

// compileGate folds a binary plane op across the inputs per bit column and
// plane word, exactly as circuit.evalFold does with scalar values:
// single-input gates fold with an all-L operand (the Or identity) so buf
// and not normalise X/Z the same way the scalar registry does.
//
// The 1- and 2-input shapes — the bulk of every gate-level benchmark — get
// fused kernels that stream the V/U plane words directly instead of going
// through the Plane struct per word; the algebra below is the PlaneOr /
// PlaneAnd / PlaneXor definitions with the Readable() normalisation folded
// in (the parametric truth-table suite proves them against the scalar
// registry at every tested width).
func compileGate(ins []span, out, w, words int, op gateOp, invert bool) func(cur, next []logic.WidePlane) {
	switch {
	case len(ins) == 1 && op != opAnd:
		// Or/Xor folded with the all-L identity reduce to buf (or not):
		// V' = V&^U (known-H lanes), inverted V' = ^(V|U), U' = U.
		a := int(ins[0].off)
		return func(cur, next []logic.WidePlane) {
			for i := 0; i < w; i++ {
				src, dst := cur[a+i], next[out+i]
				for wd := 0; wd < words; wd++ {
					av, au := src.V[wd], src.U[wd]
					if invert {
						dst.V[wd] = ^(av | au)
					} else {
						dst.V[wd] = av &^ au
					}
					dst.U[wd] = au
				}
			}
		}
	case len(ins) == 2:
		return compileGate2(ins, out, w, words, op, invert)
	}
	offs := make([]int, len(ins))
	for i, sp := range ins {
		offs[i] = int(sp.off)
	}
	single := len(offs) == 1
	return func(cur, next []logic.WidePlane) {
		for i := 0; i < w; i++ {
			dst := next[out+i]
			for wd := 0; wd < words; wd++ {
				acc := cur[offs[0]+i].Word(wd)
				if single {
					acc = op.plane(acc, logic.Plane{})
				}
				for _, o := range offs[1:] {
					acc = op.plane(acc, cur[o+i].Word(wd))
				}
				if invert {
					acc = logic.PlaneNot(acc)
				}
				dst.SetWord(wd, acc)
			}
		}
	}
}

// compileGate2 fuses a two-input gate into one pass over the plane words.
// Per word: one = lanes where the op yields a known H, zero = known L, and
// U' = everything else; the inverted forms swap one and zero (PlaneNot of
// a canonical plane keeps U and complements V into the remaining lanes).
func compileGate2(ins []span, out, w, words int, op gateOp, invert bool) func(cur, next []logic.WidePlane) {
	a, b := int(ins[0].off), int(ins[1].off)
	return func(cur, next []logic.WidePlane) {
		for i := 0; i < w; i++ {
			sa, sb, dst := cur[a+i], cur[b+i], next[out+i]
			for wd := 0; wd < words; wd++ {
				av, au := sa.V[wd], sa.U[wd]
				bv, bu := sb.V[wd], sb.U[wd]
				var one, zero uint64
				switch op {
				case opAnd:
					one = (av &^ au) & (bv &^ bu)
					zero = ^(av | au) | ^(bv | bu)
				case opOr:
					one = (av &^ au) | (bv &^ bu)
					zero = ^(av | au) & ^(bv | bu)
				default: // opXor
					u := au | bu
					one = (av ^ bv) &^ u
					zero = ^(av ^ bv) &^ u
				}
				if invert {
					one, zero = zero, one
				}
				dst.V[wd] = one
				dst.U[wd] = ^(one | zero)
			}
		}
	}
}

// compileAdd builds ripple-carry addition (or subtraction via two's
// complement) over the bit columns, per plane word. Lanes with any unknown
// input bit poison the whole result to X — the scalar Add/Sub/AddCarry
// semantics. coutOff >= 0 selects the three-input addc form with a carry
// output.
func compileAdd(ins []span, out, w, words int, sub bool, coutOff int) func(cur, next []logic.WidePlane) {
	a, b := int(ins[0].off), int(ins[1].off)
	cin := -1
	if coutOff >= 0 {
		cin = int(ins[2].off)
	}
	return func(cur, next []logic.WidePlane) {
		for wd := 0; wd < words; wd++ {
			var unk uint64
			for i := 0; i < w; i++ {
				unk |= cur[a+i].U[wd] | cur[b+i].U[wd]
			}
			carry := uint64(0)
			if sub {
				carry = ^uint64(0)
			}
			if cin >= 0 {
				r := cur[cin].Word(wd).Readable()
				unk |= r.U
				carry = r.V
			}
			for i := 0; i < w; i++ {
				av := cur[a+i].Word(wd).Readable().V
				bv := cur[b+i].Word(wd).Readable().V
				if sub {
					bv = ^bv
				}
				sum := av ^ bv ^ carry
				carry = av&bv | carry&(av^bv)
				next[out+i].SetWord(wd, logic.Plane{V: sum &^ unk, U: unk})
			}
			if coutOff >= 0 {
				next[coutOff].SetWord(wd, logic.Plane{V: carry &^ unk, U: unk})
			}
		}
	}
}

// compileScalar is the per-lane fallback: unpack each lane's inputs into
// scalar Values, run the element's registry eval with that lane's own
// state, and pack the outputs back. One worker owns the kernel, so the
// scratch buffers and per-lane state race with nobody. The second return
// value exposes the per-lane state (nil for stateless elements) so
// checkpoints can capture and restore it in place.
func compileScalar(el *circuit.Element, ins []span, outs []span, lanes int) (func(cur, next []logic.WidePlane), [][]logic.Value) {
	states := make([][]logic.Value, lanes)
	stateful := el.NumStateVals() > 0
	if stateful {
		for l := range states {
			states[l] = make([]logic.Value, el.NumStateVals())
			el.InitState(states[l])
		}
	}
	in := make([]logic.Value, len(ins))
	out := make([]logic.Value, len(outs))
	run := func(cur, next []logic.WidePlane) {
		for l := 0; l < lanes; l++ {
			for i, sp := range ins {
				in[i] = logic.ExtractLaneWide(cur[sp.off:sp.off+sp.w], l, int(sp.w))
			}
			el.Eval(in, states[l], out)
			for i, sp := range outs {
				logic.PackLaneWide(next[sp.off:sp.off+sp.w], l, out[i])
			}
		}
	}
	if !stateful {
		return run, nil
	}
	return run, states
}

// genKernel is one stimulus generator: clock/wave/const outputs are lane-
// invariant and broadcast; rand/gray get one per-lane element copy whose
// Seed is offset by the lane stride, so each lane replays an independent
// stimulus vector (lane 0 keeps the original seed and is bit-identical to
// a scalar run).
type genKernel struct {
	el      *circuit.Element
	out     span
	perLane []circuit.Element
}

func compileGen(c *circuit.Circuit, el *circuit.Element, lay layout, lanes int, stride int64) genKernel {
	g := genKernel{el: el, out: lay.span(c, el.Out[0])}
	if (el.Kind == circuit.KindRand || el.Kind == circuit.KindGray) && lanes > 1 && stride != 0 {
		g.perLane = make([]circuit.Element, lanes)
		for l := range g.perLane {
			cp := *el
			cp.Params.Seed += stride * int64(l)
			g.perLane[l] = cp
		}
	}
	return g
}

// write evaluates the generator at time t into the destination buffer.
func (g *genKernel) write(t circuit.Time, dst []logic.WidePlane) {
	o, w := int(g.out.off), int(g.out.w)
	if g.perLane == nil {
		logic.BroadcastValueWide(dst[o:o+w], g.el.GenValueAt(t))
		return
	}
	for l := range g.perLane {
		logic.PackLaneWide(dst[o:o+w], l, g.perLane[l].GenValueAt(t))
	}
}
