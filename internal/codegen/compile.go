package codegen

import (
	"sort"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/logic"
	"parsim/internal/vector"
)

// The static compiler: lower a circuit's levelized schedule into a
// program — a per-(worker, level) sequence of fused gate batches and
// devirtualized element kernels over a struct-of-arrays plane numbering.
// Compilation happens once per run; the step loop then executes
// straight-line batch loops with one barrier per step.

// program is one circuit compiled for p workers at a lane width.
type program struct {
	// off maps node -> first plane index. Nodes are numbered in (driver
	// level, node) order so each level's outputs land contiguously in the
	// slabs — the struct-of-arrays layout PARSIR argues for: a level's
	// write set is one dense stripe, not a scatter over the whole state.
	off   []int32
	total int // plane count
	slots int // level slots: slot 0 = cycle-fed (-1), slot l+1 = level l
	// work[w][slot] is worker w's slice of one level.
	work [][]levelWork
	// gens[w] are the stimulus generators in worker w's stripe.
	gens [][]vector.GenExec
	// owner[e] is the worker whose stripe holds element e.
	owner []int
}

// levelWork is one worker's compiled slice of one level: the fused gate
// batches, the kernels for every other kind, and the output spans to scan
// for node-update/probe accounting.
type levelWork struct {
	batches []gateBatch
	kerns   []vector.ElemKernel
	spans   []vector.OutSpan
	// noteOffs mirrors spans as flat (offset, width) pairs for the
	// one-word, probe-free fast path: the whole level's update scan runs
	// as one loop over the slabs instead of a call per span.
	noteOffs []int32
	elems    int64 // elements in this slice (eval accounting)
	cost     int64 // summed element Cost (CostSpin accounting)
}

// slotOf maps an analyze level to its slot index.
func slotOf(level int) int { return level + 1 }

// tableKind reports the table-driven functional kinds whose bit-sliced
// kernels pay off only with multiple live lanes; at one lane the scalar
// registry evaluation is faster, so the compiler picks it.
func tableKind(k circuit.Kind) bool {
	switch k {
	case circuit.KindMul, circuit.KindAlu, circuit.KindRom, circuit.KindRam:
		return true
	}
	return false
}

// compileProgram lowers c for p workers at a lane width; lane k's rand/gray
// generators run with Seed + k*stride (lane 0 replays the scalar stimulus).
func compileProgram(c *circuit.Circuit, p int, lanes int, stride int64) *program {
	words := logic.PlaneWords(lanes)
	levels := analyze.LevelSchedule(c)
	maxLevel := -1
	for _, l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
	}
	slots := slotOf(maxLevel) + 1
	if slots < 1 {
		slots = 1
	}

	// Node numbering: stable sort all nodes by their driver's level slot
	// (undriven nodes first — they are constant inputs every level reads),
	// then assign plane offsets in that order.
	type nodeKey struct {
		slot int
		n    circuit.NodeID
	}
	keys := make([]nodeKey, len(c.Nodes))
	for n := range c.Nodes {
		k := nodeKey{slot: -1, n: circuit.NodeID(n)}
		if d := c.Nodes[n].Driver; d != circuit.NoElem {
			k.slot = slotOf(levels[d])
		}
		keys[n] = k
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].slot != keys[j].slot {
			return keys[i].slot < keys[j].slot
		}
		return keys[i].n < keys[j].n
	})
	off := make([]int32, len(c.Nodes))
	total := int32(0)
	for _, k := range keys {
		off[k.n] = total
		total += int32(c.Nodes[k.n].Width)
	}

	prog := &program{off: off, total: int(total), slots: slots}

	// Ownership is a stripe cut of the slabs (see stripes); within a
	// worker, elements group by level and, inside a level, fused gates
	// batch by shape in element order.
	owner := stripes(c, p, levels, off)
	prog.owner = owner
	parts := make([][]circuit.ElemID, p)
	for i := range c.Elems {
		if !c.Elems[i].IsGenerator() {
			parts[owner[i]] = append(parts[owner[i]], circuit.ElemID(i))
		}
	}
	prog.work = make([][]levelWork, p)
	for w := range prog.work {
		prog.work[w] = make([]levelWork, slots)
	}
	for w, eids := range parts {
		sort.Slice(eids, func(i, j int) bool {
			si, sj := slotOf(levels[eids[i]]), slotOf(levels[eids[j]])
			if si != sj {
				return si < sj
			}
			return eids[i] < eids[j]
		})
		// Per-slot, per-shape offset accumulators, flushed slot by slot.
		var pend [numShapes][]int32
		flush := func(sl int) {
			lw := &prog.work[w][sl]
			for sh := gateShape(0); sh < numShapes; sh++ {
				if len(pend[sh]) == 0 {
					continue
				}
				lw.batches = append(lw.batches, compileBatch(sh, pend[sh], words))
				pend[sh] = nil
			}
		}
		cur := -1
		for _, eid := range eids {
			el := &c.Elems[eid]
			sl := slotOf(levels[eid])
			if sl != cur {
				if cur >= 0 {
					flush(cur)
				}
				cur = sl
			}
			lw := &prog.work[w][sl]
			lw.elems++
			lw.cost += el.Cost
			if sh, ok := fusedShape(el); ok {
				out := el.Out[0]
				oo, ww := off[out], int32(c.Nodes[out].Width)
				wd := int32(words)
				for i := int32(0); i < ww; i++ {
					switch sh.arity() {
					case 2:
						pend[sh] = append(pend[sh],
							(off[el.In[0]]+i)*wd, (oo+i)*wd)
					case 3:
						pend[sh] = append(pend[sh],
							(off[el.In[0]]+i)*wd, (off[el.In[1]]+i)*wd, (oo+i)*wd)
					case 4:
						// mux2: the width-1 select column broadcasts.
						pend[sh] = append(pend[sh],
							off[el.In[0]]*wd, (off[el.In[1]]+i)*wd, (off[el.In[2]]+i)*wd, (oo+i)*wd)
					}
				}
				lw.spans = append(lw.spans, vector.OutSpan{Node: out, Off: oo, W: ww})
				lw.noteOffs = append(lw.noteOffs, oo, ww)
				continue
			}
			var k vector.ElemKernel
			if lanes == 1 && tableKind(el.Kind) {
				k = vector.CompileScalarElemKernel(c, el, off, lanes)
			} else {
				k = vector.CompileElemKernel(c, el, off, lanes)
			}
			lw.kerns = append(lw.kerns, k)
			lw.spans = append(lw.spans, k.Outs...)
			for _, sp := range k.Outs {
				lw.noteOffs = append(lw.noteOffs, sp.Off, sp.W)
			}
		}
		if cur >= 0 {
			flush(cur)
		}
	}

	prog.gens = make([][]vector.GenExec, p)
	for _, g := range c.Generators() {
		w := owner[g]
		prog.gens[w] = append(prog.gens[w], vector.CompileGenExec(c, &c.Elems[g], off, lanes, stride))
	}
	return prog
}

// stripes assigns every element an owning worker. It takes the elements in
// slab order — by (level slot, first output plane) — and cuts them into p
// contiguous runs of equal summed Cost, so each worker writes one
// contiguous range of the next slabs and the gang shares at most the cache
// lines at the p-1 cuts. (A round-robin deal puts neighbouring planes, and
// so the same lines, on different workers at every level.) Generators ride
// in the cut too: their outputs are slab writes like any other.
func stripes(c *circuit.Circuit, p int, levels []int, off []int32) []int {
	owner := make([]int, len(c.Elems))
	if p == 1 {
		return owner
	}
	type key struct {
		slot int
		off  int32
		id   circuit.ElemID
	}
	keys := make([]key, len(c.Elems))
	var total int64
	for i := range c.Elems {
		el := &c.Elems[i]
		keys[i] = key{slot: slotOf(levels[i]), off: -1, id: el.ID}
		if len(el.Out) > 0 {
			keys[i].off = off[el.Out[0]]
		}
		total += el.Cost
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.slot != b.slot {
			return a.slot < b.slot
		}
		if a.off != b.off {
			return a.off < b.off
		}
		return a.id < b.id
	})
	var before int64
	for i, k := range keys {
		// An element belongs to the run its cost midpoint falls in; the
		// midpoints ascend, so every run is contiguous. Zero total cost
		// cuts by count instead.
		w := i * p / len(keys)
		if cost := c.Elems[k.id].Cost; total > 0 {
			w = min(int((2*before+cost)*int64(p)/(2*total)), p-1)
			before += cost
		}
		owner[k.id] = w
	}
	return owner
}
