package vector

// Exported kernel-compilation surface for the codegen engine
// (internal/codegen): the static compiler reuses the proven plane-op
// kernels of this package — the mux/register/wiring/arithmetic closures
// and the bit-sliced mul/alu/rom/ram tables — against its own node
// numbering, instead of re-deriving (and re-proving) the 4-state algebra.
// Only the fused 1/2-input gate shapes are re-lowered by the codegen
// backend itself, into flat-slab batch loops.

import (
	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// OutSpan locates one node's planes in a caller-supplied numbering:
// node Node's bit b lives at plane Off+b.
type OutSpan struct {
	Node circuit.NodeID
	Off  int32
	W    int32
}

// ElemKernel is the exported form of one compiled element: Run reads the
// input planes from cur and writes every output plane in next, for all
// lanes at once. State and LaneState alias the kernel's internal storage
// so checkpoints can capture and restore it in place.
type ElemKernel struct {
	Eid       circuit.ElemID
	Cost      int64
	Outs      []OutSpan
	Run       func(cur, next []logic.WidePlane)
	State     []logic.WidePlane
	LaneState [][]logic.Value
}

func exportKernel(k kernel) ElemKernel {
	ek := ElemKernel{
		Eid:       k.eid,
		Cost:      k.cost,
		Run:       k.run,
		State:     k.state,
		LaneState: k.laneState,
	}
	for _, sp := range k.outs {
		ek.Outs = append(ek.Outs, OutSpan{Node: sp.node, Off: sp.off, W: sp.w})
	}
	return ek
}

// CompileElemKernel compiles one element into its bit-parallel plane-op
// kernel against a caller-owned node numbering: off[n] is the first plane
// of node n. Gates, mux/registers, wiring, comparisons, adders and the
// bit-sliced functional kinds get native plane kernels; unknown kinds fall
// back to per-lane scalar evaluation.
func CompileElemKernel(c *circuit.Circuit, el *circuit.Element, off []int32, lanes int) ElemKernel {
	return exportKernel(compileElem(c, el, layout{off: off}, lanes))
}

// CompileScalarElemKernel forces the per-lane scalar fallback for one
// element regardless of kind. The codegen engine uses it for the
// table-driven functional kinds at one lane, where a bit-sliced kernel
// would do word-ops-per-bit work for a single live stimulus vector and
// the registry's native integer evaluation is strictly faster.
func CompileScalarElemKernel(c *circuit.Circuit, el *circuit.Element, off []int32, lanes int) ElemKernel {
	lay := layout{off: off}
	k := kernel{eid: el.ID, cost: el.Cost}
	for _, n := range el.Out {
		k.outs = append(k.outs, lay.span(c, n))
	}
	ins := make([]span, len(el.In))
	for i, n := range el.In {
		ins[i] = lay.span(c, n)
	}
	k.run, k.laneState = compileScalar(el, ins, k.outs, lanes)
	return exportKernel(k)
}

// GenExec is one compiled stimulus generator over a caller-owned
// numbering; Write evaluates it at time t into the destination planes.
type GenExec struct {
	g   genKernel
	Out OutSpan
}

// CompileGenExec compiles one generator element: clock/wave/const
// broadcast lane-invariant values, rand/gray get per-lane seed-offset
// copies when lanes > 1 and stride != 0.
func CompileGenExec(c *circuit.Circuit, el *circuit.Element, off []int32, lanes int, stride int64) GenExec {
	g := compileGen(c, el, layout{off: off}, lanes, stride)
	return GenExec{
		g:   g,
		Out: OutSpan{Node: g.out.node, Off: g.out.off, W: g.out.w},
	}
}

// Write evaluates the generator at time t into dst.
func (g *GenExec) Write(t circuit.Time, dst []logic.WidePlane) { g.g.write(t, dst) }
