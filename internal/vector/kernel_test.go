package vector

import (
	"fmt"
	"math/rand"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/logic"
)

var allStates = []logic.State{logic.L, logic.H, logic.X, logic.Z}

// kernelShape describes one port configuration of an element kind to prove:
// input node widths, output node widths, and the params the kind needs.
type kernelShape struct {
	ins    []int
	outs   []int
	params circuit.Params
}

// kernelShapes maps every evaluating kind to the shapes its kernel is
// proven over. Generator kinds map to nil: they have no inputs to
// enumerate and are covered by the engine-level differential tests.
// TestKernelsMatchScalarExhaustive walks circuit.AllKinds(), so adding a
// kind to the registry without adding a shape here fails the test.
var kernelShapes = map[circuit.Kind][]kernelShape{
	circuit.KindBuf: {
		{ins: []int{1}, outs: []int{1}},
		{ins: []int{2}, outs: []int{2}},
	},
	circuit.KindNot: {
		{ins: []int{1}, outs: []int{1}},
		{ins: []int{2}, outs: []int{2}},
	},
	circuit.KindAnd:  gateShapes(),
	circuit.KindOr:   gateShapes(),
	circuit.KindNand: gateShapes(),
	circuit.KindNor:  gateShapes(),
	circuit.KindXor:  gateShapes(),
	circuit.KindXnor: gateShapes(),
	circuit.KindMux2: {
		{ins: []int{1, 1, 1}, outs: []int{1}},
		{ins: []int{1, 2, 2}, outs: []int{2}},
	},
	circuit.KindDFF: {
		{ins: []int{1, 1}, outs: []int{1}},
		{ins: []int{1, 2}, outs: []int{2}},
	},
	circuit.KindDFFR: {
		{ins: []int{1, 1, 1}, outs: []int{1}, params: circuit.Params{Init: logic.V(1, 1)}},
		{ins: []int{1, 1, 2}, outs: []int{2}, params: circuit.Params{Init: logic.V(2, 2)}},
	},
	circuit.KindLatch: {
		{ins: []int{1, 1}, outs: []int{1}},
		{ins: []int{1, 2}, outs: []int{2}},
	},
	circuit.KindTri: {
		{ins: []int{1, 1}, outs: []int{1}},
		{ins: []int{1, 2}, outs: []int{2}},
	},
	circuit.KindRes2: {
		{ins: []int{1, 1}, outs: []int{1}},
		{ins: []int{2, 2}, outs: []int{2}},
	},
	circuit.KindConst: nil, // generator
	circuit.KindAdd: {
		{ins: []int{1, 1}, outs: []int{1}},
		{ins: []int{2, 2}, outs: []int{2}},
	},
	circuit.KindAddC: {
		{ins: []int{2, 2, 1}, outs: []int{2, 1}},
	},
	circuit.KindSub: {
		{ins: []int{1, 1}, outs: []int{1}},
		{ins: []int{2, 2}, outs: []int{2}},
	},
	circuit.KindMul: {
		{ins: []int{2, 2}, outs: []int{3}},
	},
	circuit.KindEq: {
		{ins: []int{2, 2}, outs: []int{1}},
	},
	circuit.KindLtU: {
		{ins: []int{2, 2}, outs: []int{1}},
	},
	circuit.KindSlice: {
		{ins: []int{4}, outs: []int{2}, params: circuit.Params{Lo: 1}},
	},
	circuit.KindExt: {
		{ins: []int{2}, outs: []int{4}},
	},
	circuit.KindConcat: {
		{ins: []int{2, 2}, outs: []int{4}},
	},
	circuit.KindShlK: {
		{ins: []int{4}, outs: []int{4}, params: circuit.Params{Shift: 1}},
		{ins: []int{4}, outs: []int{4}, params: circuit.Params{Shift: 4}},
	},
	circuit.KindShrK: {
		{ins: []int{4}, outs: []int{4}, params: circuit.Params{Shift: 1}},
		{ins: []int{4}, outs: []int{4}, params: circuit.Params{Shift: 4}},
	},
	circuit.KindRedAnd: {{ins: []int{3}, outs: []int{1}}},
	circuit.KindRedOr:  {{ins: []int{3}, outs: []int{1}}},
	circuit.KindRedXor: {{ins: []int{3}, outs: []int{1}}},
	circuit.KindAlu: {
		{ins: []int{3, 2, 2}, outs: []int{2}},
	},
	circuit.KindRom: {
		{ins: []int{2}, outs: []int{2}, params: circuit.Params{Mem: []uint64{1, 2, 3}}},
	},
	circuit.KindRam: {
		{ins: []int{1, 1, 2, 2}, outs: []int{2}, params: circuit.Params{Mem: []uint64{3}}},
	},
	circuit.KindClock: nil, // generator
	circuit.KindWave:  nil, // generator
	circuit.KindRand:  nil, // generator
	circuit.KindGray:  nil, // generator
}

// gateShapes covers the two-input, three-input (fold) and multi-bit forms
// of the variadic gate kinds.
func gateShapes() []kernelShape {
	return []kernelShape{
		{ins: []int{1, 1}, outs: []int{1}},
		{ins: []int{1, 1, 1}, outs: []int{1}},
		{ins: []int{2, 2}, outs: []int{2}},
	}
}

// buildShape constructs a one-element circuit for the shape, with every
// input node driven by a placeholder const so the netlist validates.
func buildShape(t *testing.T, kind circuit.Kind, sh kernelShape) (*circuit.Circuit, *circuit.Element) {
	t.Helper()
	b := circuit.NewBuilder("kernel-" + circuit.KindName(kind))
	var ins, outs []circuit.NodeID
	for i, w := range sh.ins {
		n := b.Node(fmt.Sprintf("in%d", i), w)
		b.Const(fmt.Sprintf("drv%d", i), n, logic.AllX(w))
		ins = append(ins, n)
	}
	for i, w := range sh.outs {
		outs = append(outs, b.Node(fmt.Sprintf("out%d", i), w))
	}
	b.AddElement(kind, "dut", 1, outs, ins, sh.params)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("build %v %v: %v", kind, sh, err)
	}
	return c, &c.Elems[c.ElByName["dut"]]
}

// valueFromIndex decodes an enumeration index into a width-w four-state
// value, two index bits per bit position.
func valueFromIndex(w int, idx uint64) logic.Value {
	states := make([]logic.State, w)
	for b := range states {
		states[b] = allStates[idx>>uint(2*b)&3]
	}
	return logic.FromStates(states)
}

// kernelProofWidths lists the plane widths every kernel is proven at: one
// word (the PR 5 baseline) and a multi-word plane, so the word loops in
// every kernel are exercised with cross-word lane populations.
var kernelProofWidths = []int{logic.MaxLanes, 4 * logic.MaxLanes}

// TestKernelsMatchScalarExhaustive proves every compiled kernel against the
// element's scalar registry evaluation, at every width in
// kernelProofWidths. For every kind in the registry and every shape: all
// four-state input combinations are enumerated (lanes per step, one per
// lane) and, for stateful kinds, extended with random multi-step sequences
// so capture/hold behaviour is compared against a per-lane scalar oracle
// carrying its own element state.
func TestKernelsMatchScalarExhaustive(t *testing.T) {
	testKernelsAtWidth(t, kernelProofWidths[0])
}

// TestWideKernelsMatchScalarExhaustive is the multi-word run of the same
// proof; a separate test function so the CI wide-lane job (-run Wide)
// exercises it in isolation.
func TestWideKernelsMatchScalarExhaustive(t *testing.T) {
	for _, lanes := range kernelProofWidths[1:] {
		testKernelsAtWidth(t, lanes)
	}
}

func testKernelsAtWidth(t *testing.T, lanes int) {
	for _, kind := range circuit.AllKinds() {
		shapes, listed := kernelShapes[kind]
		if !listed {
			t.Errorf("kind %s has no kernel shape entry; add one to kernelShapes", circuit.KindName(kind))
			continue
		}
		if shapes == nil {
			if !circuit.IsGenerator(kind) {
				t.Errorf("kind %s is not a generator but has no kernel shapes", circuit.KindName(kind))
			}
			continue
		}
		for si, sh := range shapes {
			t.Run(fmt.Sprintf("lanes%d/%s/%d", lanes, circuit.KindName(kind), si), func(t *testing.T) {
				proveKernel(t, kind, sh, lanes)
			})
		}
	}
}

// testLayout numbers the nodes of c in declaration order and returns the
// layout with its total plane count.
func testLayout(c *circuit.Circuit) (layout, int) {
	off := make([]int32, len(c.Nodes))
	n := int32(0)
	for i := range c.Nodes {
		off[i] = n
		n += int32(c.Nodes[i].Width)
	}
	return layout{off: off}, int(n)
}

func proveKernel(t *testing.T, kind circuit.Kind, sh kernelShape, lanes int) {
	c, el := buildShape(t, kind, sh)
	lay, total := testLayout(c)
	kern := compileElem(c, el, lay, lanes)
	words := logic.PlaneWords(lanes)

	// Total input combination count: 4^w options per input.
	totalBits := 0
	for _, w := range sh.ins {
		totalBits += 2 * w
	}
	combos := uint64(1) << uint(totalBits)

	stateful := el.NumStateVals() > 0
	steps := int((combos + uint64(lanes) - 1) / uint64(lanes))
	if stateful {
		// Sequences matter: append random steps so edges and holds are
		// exercised against the oracle's persistent state.
		steps += 96
	}

	// Per-lane scalar oracle state.
	oracleState := make([][]logic.Value, lanes)
	if n := el.NumStateVals(); n > 0 {
		for l := range oracleState {
			oracleState[l] = make([]logic.Value, n)
			el.InitState(oracleState[l])
		}
	}

	cur := newWidePlanes(total, words)
	next := newWidePlanes(total, words)
	rng := rand.New(rand.NewSource(int64(kind)*7919 + int64(totalBits) + int64(lanes)))

	inVals := make([][]logic.Value, lanes)
	oracleIn := make([]logic.Value, len(sh.ins))
	oracleOut := make([]logic.Value, len(sh.outs))
	for step := 0; step < steps; step++ {
		// Choose and pack each lane's input combination.
		for l := 0; l < lanes; l++ {
			idx := uint64(step*lanes+l) % combos
			if uint64(step*lanes+l) >= combos {
				idx = rng.Uint64() % combos
			}
			vals := make([]logic.Value, len(sh.ins))
			shift := uint(0)
			for i, w := range sh.ins {
				vals[i] = valueFromIndex(w, idx>>shift)
				shift += uint(2 * w)
			}
			inVals[l] = vals
			for i, n := range el.In {
				o := int(lay.off[n])
				logic.PackLaneWide(cur[o:o+sh.ins[i]], l, vals[i])
			}
		}

		kern.run(cur, next)

		for l := 0; l < lanes; l++ {
			copy(oracleIn, inVals[l])
			el.Eval(oracleIn, oracleState[l], oracleOut)
			for oi, n := range el.Out {
				o, w := int(lay.off[n]), sh.outs[oi]
				got := logic.ExtractLaneWide(next[o:o+w], l, w)
				if got != oracleOut[oi] {
					t.Fatalf("lanes %d step %d lane %d in=%v: out %d = %v, want %v",
						lanes, step, l, inVals[l], oi, got, oracleOut[oi])
				}
			}
		}
	}
}
