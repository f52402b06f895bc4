package codegen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/gen"
	"parsim/internal/stats"
)

// faultGolden is one row of testdata/fault_golden.json: the coverage the
// former stand-alone vector engine's fault path reported for a paper
// circuit, recorded from that implementation before its step loop was
// folded into this one. rows_sha256 hashes the JSON encoding of every
// per-fault status row (detected or not), so the match is bit for bit;
// detected_rows spells out the detected ones for readable diffs.
type faultGolden struct {
	Name      string              `json:"name"`
	Horizon   int64               `json:"horizon"`
	Lanes     int                 `json:"lanes"`
	MaxPasses int                 `json:"max_passes"`
	Total     int                 `json:"total"`
	Detected  int                 `json:"detected"`
	Collapsed int                 `json:"collapsed"`
	Passes    int                 `json:"passes"`
	RowsSHA   string              `json:"rows_sha256"`
	Hits      []stats.FaultStatus `json:"detected_rows"`
}

// goldenCircuit builds the default paper circuit the golden row names.
func goldenCircuit(t *testing.T, name string) *circuit.Circuit {
	switch name {
	case "inverter-array":
		return gen.InverterArray(gen.DefaultInverterArray())
	case "mult16-gate":
		return gen.GateMultiplier(gen.DefaultMultiplier())
	case "microprocessor":
		return gen.CPU(gen.DefaultCPU())
	}
	t.Fatalf("unknown golden circuit %q", name)
	return nil
}

func faultRun(t *testing.T, c *circuit.Circuit, workers, lanes, passes int, horizon circuit.Time) *stats.FaultCoverage {
	t.Helper()
	res, err := Run(c, Options{
		Workers: workers, Horizon: horizon, Lanes: lanes,
		FaultSim: &FaultOptions{MaxPasses: passes, KeepStatuses: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.FaultCoverage
}

// TestFaultGoldenStatuses is the independent anchor for fault grading:
// the inverter array over its full collapsed list (two 64-lane passes),
// and mult16-gate and the CPU for five cycles at one pass each, must
// reproduce the recorded per-fault verdicts and detection steps exactly,
// at one worker and at two.
func TestFaultGoldenStatuses(t *testing.T) {
	data, err := os.ReadFile("testdata/fault_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []faultGolden
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != 3 {
		t.Fatalf("golden file has %d cases, want 3", len(golden))
	}
	for _, g := range golden {
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", g.Name, w), func(t *testing.T) {
				fc := faultRun(t, goldenCircuit(t, g.Name), w, g.Lanes, g.MaxPasses, circuit.Time(g.Horizon))
				if fc.Total != g.Total || fc.Detected != g.Detected ||
					fc.Collapsed != g.Collapsed || fc.Passes != g.Passes {
					t.Fatalf("total/detected/collapsed/passes = %d/%d/%d/%d, golden %d/%d/%d/%d",
						fc.Total, fc.Detected, fc.Collapsed, fc.Passes,
						g.Total, g.Detected, g.Collapsed, g.Passes)
				}
				var hits []stats.FaultStatus
				for _, st := range fc.Faults {
					if st.Detected {
						hits = append(hits, st)
					}
				}
				if !reflect.DeepEqual(hits, g.Hits) {
					for i := range min(len(hits), len(g.Hits)) {
						if hits[i] != g.Hits[i] {
							t.Fatalf("detected row %d: %+v, golden %+v", i, hits[i], g.Hits[i])
						}
					}
					t.Fatalf("%d detected rows, golden %d", len(hits), len(g.Hits))
				}
				rows, err := json.Marshal(fc.Faults)
				if err != nil {
					t.Fatal(err)
				}
				if sum := sha256.Sum256(rows); hex.EncodeToString(sum[:]) != g.RowsSHA {
					t.Fatalf("status rows hash %x, golden %s", sum, g.RowsSHA)
				}
			})
		}
	}
}

// TestFaultChunkingInvisible: chunking must not change a fault's verdict.
// The inverter array's full list graded in two 64-lane passes and in one
// 256-lane pass gives identical status rows.
func TestFaultChunkingInvisible(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	narrow := faultRun(t, c, 1, 64, 0, 192)
	wide := faultRun(t, c, 2, 256, 0, 192)
	if narrow.Passes != 2 || wide.Passes != 1 {
		t.Fatalf("passes = %d at 64 lanes and %d at 256, want 2 and 1", narrow.Passes, wide.Passes)
	}
	if !reflect.DeepEqual(narrow.Faults, wide.Faults) {
		t.Fatalf("status rows differ between 64- and 256-lane runs:\n%+v\n%+v", narrow.Faults, wide.Faults)
	}
}
