package barrier

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestSingleWorker(t *testing.T) {
	b := New(1)
	var s Sense
	for i := 0; i < 100; i++ {
		b.Wait(&s) // must never block
	}
}

func TestPhasesStayAligned(t *testing.T) {
	const workers = 8
	const rounds = 500
	b := New(workers)
	var phase atomic.Int64
	counts := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s Sense
			for r := 0; r < rounds; r++ {
				// Every worker increments once per round; after the barrier
				// the total must be exactly workers * (r+1).
				phase.Add(1)
				b.Wait(&s)
				if got := phase.Load(); got != int64(workers*(r+1)) {
					t.Errorf("worker %d round %d: phase = %d, want %d",
						w, r, got, workers*(r+1))
					return
				}
				counts[w]++
				b.Wait(&s)
			}
		}(w)
	}
	wg.Wait()
	for w, c := range counts {
		if c != rounds {
			t.Errorf("worker %d completed %d rounds", w, c)
		}
	}
}

func TestOversubscribed(t *testing.T) {
	// More workers than cores: the Gosched path must avoid livelock.
	const workers = 32
	b := New(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Sense
			for r := 0; r < 50; r++ {
				b.Wait(&s)
			}
		}()
	}
	wg.Wait()
}

func TestBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

// BenchmarkWait is the cost of one barrier round trip between two
// goroutines: b.N rounds, each worker passing the barrier once per round.
func BenchmarkWait(b *testing.B) {
	bar := New(2)
	done := make(chan struct{})
	go func() {
		var s Sense
		for i := 0; i < b.N; i++ {
			bar.Wait(&s)
		}
		close(done)
	}()
	var s Sense
	for i := 0; i < b.N; i++ {
		bar.Wait(&s)
	}
	<-done
}
