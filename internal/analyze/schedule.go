package analyze

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"parsim/internal/circuit"
)

// LevelSchedule computes each element's combinational depth — the same
// Kahn levelization Analyze reports in Report.Levels — without running the
// diagnostic passes. Elements inside (or fed only through) sequential
// feedback that cannot be levelized get -1. The codegen engine (jit and
// vector) derives its node numbering and per-level program from it.
//
// Levelization is memoized by a structural digest of the circuit, so the
// profiler, the linter and the codegen engine all levelizing the
// same circuit (or structurally identical clones of it) pay for one Kahn
// pass. The returned slice is a fresh copy the caller may mutate.
func LevelSchedule(c *circuit.Circuit) []int {
	e := levelsFor(c)
	out := make([]int, len(e.levels))
	copy(out, e.levels)
	return out
}

// levelizeRuns counts the levelization passes that actually ran (cache
// misses). Test hook: the one-levelization-per-circuit guarantee is pinned
// against it.
var levelizeRuns atomic.Int64

// schedEntry is an immutable cached levelization. The levels slice is
// shared between the cache and in-package readers; exported paths hand out
// copies.
type schedEntry struct {
	levels   []int
	maxLevel int
}

const schedCacheCap = 128

// schedCache memoizes levelizations by structural digest. Bounded FIFO:
// long-running processes (parsimd replaying a journal of distinct
// circuits) cannot grow it without limit, and eviction order does not
// matter for correctness — a miss just re-levelizes. The mutex also
// single-flights concurrent misses on the same circuit.
var schedCache = struct {
	sync.Mutex
	byKey map[[32]byte]*schedEntry
	fifo  [][32]byte
}{byKey: make(map[[32]byte]*schedEntry)}

// scheduleKey digests exactly the structure levelization depends on:
// element kinds (combPort consults trigger ports by kind), their input and
// output node lists (buildGraph's edges), and the node count. Names,
// delays, costs and generator parameters do not influence levels and are
// deliberately excluded, so renamed or re-parameterized clones still hit.
func scheduleKey(c *circuit.Circuit) [32]byte {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(len(c.Nodes)))
	put(int64(len(c.Elems)))
	for i := range c.Elems {
		el := &c.Elems[i]
		put(int64(el.Kind))
		put(int64(len(el.In)))
		for _, n := range el.In {
			put(int64(n))
		}
		put(int64(len(el.Out)))
		for _, n := range el.Out {
			put(int64(n))
		}
	}
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// levelsFor returns the memoized levelization for c, running the Kahn pass
// on a cache miss.
func levelsFor(c *circuit.Circuit) *schedEntry {
	key := scheduleKey(c)
	schedCache.Lock()
	defer schedCache.Unlock()
	if e, ok := schedCache.byKey[key]; ok {
		return e
	}
	levelizeRuns.Add(1)
	levels, maxLevel := levelize(buildGraph(c))
	e := &schedEntry{levels: levels, maxLevel: maxLevel}
	if len(schedCache.fifo) >= schedCacheCap {
		delete(schedCache.byKey, schedCache.fifo[0])
		schedCache.fifo = schedCache.fifo[1:]
	}
	schedCache.byKey[key] = e
	schedCache.fifo = append(schedCache.fifo, key)
	return e
}
