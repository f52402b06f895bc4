package codegen

// The fused gate shapes: the 1- and 2-input gates that dominate every
// gate-level netlist are not compiled one closure per element the way
// internal/vector's kernels are. Instead the compiler collects all same-shaped
// gates of one (worker, level) slice into a single batch — a flat offset
// table over the struct-of-arrays value/unknown slabs — and the whole
// batch runs as one branch-free loop of word ops: no per-element call, no
// kind dispatch, no bounds-check chains through plane structs. The algebra
// is exactly internal/vector's fused compileGate/compileGate2 forms
// (PlaneAnd/PlaneOr/PlaneXor with the Readable() normalisation folded in),
// which the truth-table suite proves against the scalar registry.

import "parsim/internal/circuit"

// gateShape enumerates the fused batch loops. 1-input shapes store offset
// pairs (src, dst); 2-input shapes store triples (a, b, dst). Offsets are
// plane indices pre-multiplied by the plane word count, so the loops index
// the flat slabs directly.
type gateShape int

const (
	shapeBuf1 gateShape = iota // buf, 1-input or/xor (fold identity = L)
	shapeNot1                  // not, 1-input nor/xnor
	shapeAnd2
	shapeNand2
	shapeOr2
	shapeNor2
	shapeXor2
	shapeXnor2
	shapeMux2 // (sel, a, b, out) quadruples; sel repeats per bit column
	numShapes
)

// arity returns the number of offsets per batch entry.
func (sh gateShape) arity() int {
	switch sh {
	case shapeBuf1, shapeNot1:
		return 2
	case shapeMux2:
		return 4
	}
	return 3
}

// fusedShape classifies an element into a batch shape, or reports that it
// needs a real kernel. The mapping mirrors vector.compileGate: 1-input
// or-family gates reduce to buf/not (fold with the all-L identity), while
// 1-input and/nand keep the generic fold (its identity differs) and
// anything with three or more inputs folds in a kernel too.
func fusedShape(el *circuit.Element) (gateShape, bool) {
	switch len(el.In) {
	case 1:
		switch el.Kind {
		case circuit.KindBuf, circuit.KindOr, circuit.KindXor:
			return shapeBuf1, true
		case circuit.KindNot, circuit.KindNor, circuit.KindXnor:
			return shapeNot1, true
		}
	case 2:
		switch el.Kind {
		case circuit.KindAnd:
			return shapeAnd2, true
		case circuit.KindNand:
			return shapeNand2, true
		case circuit.KindOr:
			return shapeOr2, true
		case circuit.KindNor:
			return shapeNor2, true
		case circuit.KindXor:
			return shapeXor2, true
		case circuit.KindXnor:
			return shapeXnor2, true
		}
	case 3:
		// The 2:1 mux dominates datapath-heavy netlists (the microprocessor
		// is half mux2 by element count); its single-bit select broadcasts
		// over the data columns, so it batches as offset quadruples.
		if el.Kind == circuit.KindMux2 {
			return shapeMux2, true
		}
	}
	return 0, false
}

// gateBatch is one compiled batch: every same-shaped gate bit-column of a
// (worker, level) slice, run by a single specialized loop. run reads the
// cur-side slabs and writes the next-side slabs.
type gateBatch struct {
	shape gateShape
	offs  []int32
	run   func(cv, cu, nv, nu []uint64)
}

// compileBatch binds a shape's specialized loop to its offset table.
func compileBatch(sh gateShape, offs []int32, words int) gateBatch {
	b := gateBatch{shape: sh, offs: offs}
	switch sh {
	case shapeBuf1:
		b.run = runCopy1(offs, words, false)
	case shapeNot1:
		b.run = runCopy1(offs, words, true)
	case shapeAnd2:
		b.run = runAnd2(offs, words, false)
	case shapeNand2:
		b.run = runAnd2(offs, words, true)
	case shapeOr2:
		b.run = runOr2(offs, words, false)
	case shapeNor2:
		b.run = runOr2(offs, words, true)
	case shapeXor2:
		b.run = runXor2(offs, words, false)
	case shapeXnor2:
		b.run = runXor2(offs, words, true)
	case shapeMux2:
		b.run = runMux2(offs, words)
	}
	return b
}

// runCopy1: V' = V&^U (buf) or ^(V|U) (not), U' = U.
func runCopy1(offs []int32, words int, invert bool) func(cv, cu, nv, nu []uint64) {
	if words == 1 {
		if invert {
			return func(cv, cu, nv, nu []uint64) {
				for i := 0; i < len(offs); i += 2 {
					a, o := offs[i], offs[i+1]
					av, au := cv[a], cu[a]
					nv[o] = ^(av | au)
					nu[o] = au
				}
			}
		}
		return func(cv, cu, nv, nu []uint64) {
			for i := 0; i < len(offs); i += 2 {
				a, o := offs[i], offs[i+1]
				av, au := cv[a], cu[a]
				nv[o] = av &^ au
				nu[o] = au
			}
		}
	}
	m := invertMask(invert)
	return func(cv, cu, nv, nu []uint64) {
		for i := 0; i < len(offs); i += 2 {
			a, o := int(offs[i]), int(offs[i+1])
			ov, ou := nv[o:o+words], nu[o:o+words]
			av, au := cv[a:a+words], cu[a:a+words]
			_, _, _ = ou[len(ov)-1], av[len(ov)-1], au[len(ov)-1]
			for wd := range ov {
				ov[wd] = (av[wd] ^ m) &^ au[wd]
				ou[wd] = au[wd]
			}
		}
	}
}

// invertMask turns a gate's output inversion into a word mask, so the
// multi-word loops carry no branch. one, zero and the unknown lanes u
// partition every word, so (one^m)&^u is one when m is 0 and zero when m
// is all ones — the inverted gate's known-H lanes.
func invertMask(invert bool) uint64 {
	if invert {
		return ^uint64(0)
	}
	return 0
}

// runAnd2: one = known-H lanes of both inputs, zero = known-L lanes of
// either; nand swaps one and zero.
func runAnd2(offs []int32, words int, invert bool) func(cv, cu, nv, nu []uint64) {
	if words == 1 {
		return func(cv, cu, nv, nu []uint64) {
			for i := 0; i < len(offs); i += 3 {
				a, b, o := offs[i], offs[i+1], offs[i+2]
				av, au := cv[a], cu[a]
				bv, bu := cv[b], cu[b]
				one := (av &^ au) & (bv &^ bu)
				zero := ^(av | au) | ^(bv | bu)
				if invert {
					one, zero = zero, one
				}
				nv[o] = one
				nu[o] = ^(one | zero)
			}
		}
	}
	m := invertMask(invert)
	return func(cv, cu, nv, nu []uint64) {
		for i := 0; i < len(offs); i += 3 {
			a, b, o := int(offs[i]), int(offs[i+1]), int(offs[i+2])
			ov, ou := nv[o:o+words], nu[o:o+words]
			as, aus := cv[a:a+words], cu[a:a+words]
			bs, bus := cv[b:b+words], cu[b:b+words]
			_, _, _, _, _ = ou[len(ov)-1], as[len(ov)-1], aus[len(ov)-1], bs[len(ov)-1], bus[len(ov)-1]
			for wd := range ov {
				av, au, bv, bu := as[wd], aus[wd], bs[wd], bus[wd]
				one := (av &^ au) & (bv &^ bu)
				zero := ^(av | au) | ^(bv | bu)
				u := ^(one | zero)
				ov[wd] = (one ^ m) &^ u
				ou[wd] = u
			}
		}
	}
}

// runOr2: one = known-H lanes of either input, zero = known-L lanes of
// both; nor swaps.
func runOr2(offs []int32, words int, invert bool) func(cv, cu, nv, nu []uint64) {
	if words == 1 {
		return func(cv, cu, nv, nu []uint64) {
			for i := 0; i < len(offs); i += 3 {
				a, b, o := offs[i], offs[i+1], offs[i+2]
				av, au := cv[a], cu[a]
				bv, bu := cv[b], cu[b]
				one := (av &^ au) | (bv &^ bu)
				zero := ^(av | au) & ^(bv | bu)
				if invert {
					one, zero = zero, one
				}
				nv[o] = one
				nu[o] = ^(one | zero)
			}
		}
	}
	m := invertMask(invert)
	return func(cv, cu, nv, nu []uint64) {
		for i := 0; i < len(offs); i += 3 {
			a, b, o := int(offs[i]), int(offs[i+1]), int(offs[i+2])
			ov, ou := nv[o:o+words], nu[o:o+words]
			as, aus := cv[a:a+words], cu[a:a+words]
			bs, bus := cv[b:b+words], cu[b:b+words]
			_, _, _, _, _ = ou[len(ov)-1], as[len(ov)-1], aus[len(ov)-1], bs[len(ov)-1], bus[len(ov)-1]
			for wd := range ov {
				av, au, bv, bu := as[wd], aus[wd], bs[wd], bus[wd]
				one := (av &^ au) | (bv &^ bu)
				zero := ^(av | au) & ^(bv | bu)
				u := ^(one | zero)
				ov[wd] = (one ^ m) &^ u
				ou[wd] = u
			}
		}
	}
}

// runMux2 is logic.PlaneMux with the Readable() normalisation folded in:
// a when sel is a known L, b when a known H; an unreadable select keeps the
// value a and b agree on and poisons the rest.
func runMux2(offs []int32, words int) func(cv, cu, nv, nu []uint64) {
	if words == 1 {
		return func(cv, cu, nv, nu []uint64) {
			for i := 0; i < len(offs); i += 4 {
				s, a, b, o := offs[i], offs[i+1], offs[i+2], offs[i+3]
				sv, su := cv[s], cu[s]
				selH := sv &^ su
				selL := ^(sv | su)
				av, au := cv[a]&^cu[a], cu[a]
				bv, bu := cv[b]&^cu[b], cu[b]
				agree := ^(av ^ bv) &^ (au | bu)
				nv[o] = av&selL | bv&selH | av&agree&su
				nu[o] = au&selL | bu&selH | ^agree&su
			}
		}
	}
	return func(cv, cu, nv, nu []uint64) {
		for i := 0; i < len(offs); i += 4 {
			s, a, b, o := int(offs[i]), int(offs[i+1]), int(offs[i+2]), int(offs[i+3])
			ov, ou := nv[o:o+words], nu[o:o+words]
			ss, sus := cv[s:s+words], cu[s:s+words]
			as, aus := cv[a:a+words], cu[a:a+words]
			bs, bus := cv[b:b+words], cu[b:b+words]
			_, _, _ = ou[len(ov)-1], ss[len(ov)-1], sus[len(ov)-1]
			_, _, _, _ = as[len(ov)-1], aus[len(ov)-1], bs[len(ov)-1], bus[len(ov)-1]
			for wd := range ov {
				sv, su := ss[wd], sus[wd]
				selH := sv &^ su
				selL := ^(sv | su)
				av, au := as[wd]&^aus[wd], aus[wd]
				bv, bu := bs[wd]&^bus[wd], bus[wd]
				agree := ^(av ^ bv) &^ (au | bu)
				ov[wd] = av&selL | bv&selH | av&agree&su
				ou[wd] = au&selL | bu&selH | ^agree&su
			}
		}
	}
}

// runXor2: both inputs known decide H/L by parity; any unknown poisons.
func runXor2(offs []int32, words int, invert bool) func(cv, cu, nv, nu []uint64) {
	if words == 1 {
		return func(cv, cu, nv, nu []uint64) {
			for i := 0; i < len(offs); i += 3 {
				a, b, o := offs[i], offs[i+1], offs[i+2]
				u := cu[a] | cu[b]
				one := (cv[a] ^ cv[b]) &^ u
				zero := ^(cv[a] ^ cv[b]) &^ u
				if invert {
					one, zero = zero, one
				}
				nv[o] = one
				nu[o] = ^(one | zero)
			}
		}
	}
	m := invertMask(invert)
	return func(cv, cu, nv, nu []uint64) {
		for i := 0; i < len(offs); i += 3 {
			a, b, o := int(offs[i]), int(offs[i+1]), int(offs[i+2])
			ov, ou := nv[o:o+words], nu[o:o+words]
			as, aus := cv[a:a+words], cu[a:a+words]
			bs, bus := cv[b:b+words], cu[b:b+words]
			_, _, _, _, _ = ou[len(ov)-1], as[len(ov)-1], aus[len(ov)-1], bs[len(ov)-1], bus[len(ov)-1]
			for wd := range ov {
				u := aus[wd] | bus[wd]
				ov[wd] = (as[wd] ^ bs[wd] ^ m) &^ u
				ou[wd] = u
			}
		}
	}
}
