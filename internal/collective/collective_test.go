package collective

import (
	"math"
	"testing"
	"time"

	"repro/internal/machine"
)

// run executes body on p ranks with a deadlock watchdog.
func run(t *testing.T, p int, body func(c *machine.Comm)) *machine.Report {
	t.Helper()
	rep, err := machine.RunWith(p, machine.RunConfig{Timeout: 10 * time.Second}, body)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestAllToAllFixedPadsEveryPair(t *testing.T) {
	const p, width = 5, 4
	rep := run(t, p, func(c *machine.Comm) {
		send, recv := widthBuffers(p, width), widthBuffers(p, width)
		send[(c.Rank()+1)%p][0] = 1 // almost everything padding
		AllToAllFixedInto(c, 0, width, send, recv)
		from := (c.Rank() - 1 + p) % p
		for i := range recv {
			for k, v := range recv[i] {
				want := 0.0
				if i == from && k == 0 {
					want = 1
				}
				if v != want {
					t.Errorf("rank %d slot %d word %d: %g, want %g", c.Rank(), i, k, v, want)
				}
			}
		}
	})
	// Fixed-width semantics: every rank sends width·(p−1) words regardless
	// of payload — the §7.2 accounting.
	for r, w := range rep.SentWords {
		if w != width*(p-1) {
			t.Errorf("rank %d sent %d words, want %d", r, w, width*(p-1))
		}
	}
}

func TestAllGatherV(t *testing.T) {
	const p = 7
	run(t, p, func(c *machine.Comm) {
		mine := make([]float64, c.Rank()+1) // ragged sizes
		for i := range mine {
			mine[i] = float64(c.Rank())
		}
		got := AllGatherV(c, 0, mine)
		for i := range got {
			if len(got[i]) != i+1 || (i > 0 && got[i][0] != float64(i)) {
				t.Errorf("rank %d slot %d: %v", c.Rank(), i, got[i])
			}
		}
	})
}

func TestReduceScatterSum(t *testing.T) {
	const p = 5
	run(t, p, func(c *machine.Comm) {
		contrib := make([][]float64, p)
		for i := range contrib {
			contrib[i] = []float64{float64(c.Rank() + i), 1}
		}
		got := ReduceScatterSum(c, 0, contrib)
		// Σ_r (r + me) = p·me + p(p-1)/2; second slot sums to p.
		want0 := float64(p*c.Rank() + p*(p-1)/2)
		if math.Abs(got[0]-want0) > 1e-12 || math.Abs(got[1]-float64(p)) > 1e-12 {
			t.Errorf("rank %d: got %v, want [%g %d]", c.Rank(), got, want0, p)
		}
	})
}

func TestBcast(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8, 13} {
		for root := 0; root < p; root += (p + 2) / 3 {
			rep := run(t, p, func(c *machine.Comm) {
				var data []float64
				if c.Rank() == root {
					data = []float64{3, 1, 4}
				}
				got := Bcast(c, 0, root, data)
				if len(got) != 3 || got[0] != 3 || got[2] != 4 {
					t.Errorf("p=%d root=%d rank %d: got %v", p, root, c.Rank(), got)
				}
			})
			// Binomial tree latency: no rank sends more than ceil(log2 p)
			// messages.
			logp := 0
			for 1<<logp < p {
				logp++
			}
			if rep.MaxSentMsgs() > int64(logp) {
				t.Errorf("p=%d root=%d: max %d messages, want <= %d", p, root, rep.MaxSentMsgs(), logp)
			}
		}
	}
}

func TestAllReduceSum(t *testing.T) {
	const p = 6
	run(t, p, func(c *machine.Comm) {
		got := AllReduceSum(c, 0, []float64{float64(c.Rank()), 1})
		if got[0] != float64(p*(p-1)/2) || got[1] != float64(p) {
			t.Errorf("rank %d: got %v", c.Rank(), got)
		}
	})
}

// widthBuffers returns p zeroed buffers of width words each.
func widthBuffers(p, width int) [][]float64 {
	bufs := make([][]float64, p)
	for i := range bufs {
		bufs[i] = make([]float64, width)
	}
	return bufs
}

func BenchmarkAllToAllFixedInto(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := machine.RunWith(16, machine.RunConfig{Timeout: time.Minute}, func(c *machine.Comm) {
			AllToAllFixedInto(c, 0, 32, widthBuffers(16, 32), widthBuffers(16, 32))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
