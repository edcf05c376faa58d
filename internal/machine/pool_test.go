package machine

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
)

func TestClassSize(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16},
		{1023, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, c := range cases {
		if got := 1 << classOf(c.n); got != c.want {
			t.Errorf("class of %d holds %d words, want %d", c.n, got, c.want)
		}
	}
}

// TestPayloadPoolReuse: a buffer a receiver hands back is the next one
// its owner draws from the same class; foreign capacities are refused, and
// a full return ring drops what does not fit.
func TestPayloadPoolReuse(t *testing.T) {
	pp := payloadPool{returns: make([]atomic.Pointer[returnRing], 2)}
	a := pp.get(5)
	if len(a) != 5 || cap(a) != 8 {
		t.Fatalf("get(5): len %d cap %d, want 5/8", len(a), cap(a))
	}
	pp.giveBack(1, a)
	b := pp.get(7) // same class (8): must be the recycled buffer
	if len(b) != 7 || &b[0] != &a[0] {
		t.Fatal("get after giveBack did not reuse the returned buffer")
	}
	// Foreign capacities (not an exact class size) are refused.
	pp.giveBack(1, make([]float64, 5, 6))
	if c := pp.get(5); cap(c) != 8 || &c[0] == &a[0] {
		t.Fatalf("pool took back a non-class-size buffer (cap %d)", cap(c))
	}
	if pp.get(0) != nil {
		t.Fatal("get(0) must be nil")
	}
	for i := 0; i < returnSlots+3; i++ {
		pp.giveBack(0, make([]float64, 4))
	}
	pp.collect()
	if got := len(pp.free[classOf(4)]); got != returnSlots {
		t.Fatalf("collected %d buffers from one ring, want its %d slots", got, returnSlots)
	}
}

// sync2 synchronizes the two ranks of a run with one empty message each
// way, which allocates nothing.
func sync2(c *Comm) {
	c.Send(1-c.Rank(), -1, nil)
	c.RecvInto(1-c.Rank(), -1, nil)
}

// steadyMallocs runs two ranks, each looping over the round newRound
// builds for it: three warm-up rounds (payload pool, held list), then
// rounds measured ones. It returns the run's report and the mallocs
// counted across the measured rounds. Rank 0 counts; rank 1 mirrors the
// same loop and every round ends at a sync2, so an allocation on either
// side shows up in the global malloc counter.
func steadyMallocs(t *testing.T, rounds int, newRound func(c *Comm) func()) (*Report, uint64) {
	t.Helper()
	var mallocs uint64
	rep, err := RunWith(2, RunConfig{}, func(c *Comm) {
		round := newRound(c)
		for i := 0; i < 3; i++ {
			round()
		}
		sync2(c)
		if c.Rank() != 0 {
			for i := 0; i < rounds; i++ {
				round()
			}
			return
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			round()
		}
		runtime.ReadMemStats(&after)
		mallocs = after.Mallocs - before.Mallocs
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, mallocs
}

// TestSteadyStateExchangeZeroAlloc pins the machine-layer half of the
// session engine's zero-allocation guarantee: a Send/RecvInto/sync2
// loop over the direct transport allocates nothing after one warm-up
// round, because Send draws its defensive copy from the payload pool and
// RecvInto recycles it on delivery.
func TestSteadyStateExchangeZeroAlloc(t *testing.T) {
	const words = 96
	const rounds = 200
	rep, mallocs := steadyMallocs(t, rounds, func(c *Comm) func() {
		me := c.Rank()
		peer := 1 - me
		src := make([]float64, words)
		dst := make([]float64, words)
		return func() {
			if me == 0 {
				c.Send(peer, 7, src)
				c.RecvInto(peer, 7, dst)
			} else {
				c.RecvInto(peer, 7, dst)
				c.Send(peer, 7, src)
			}
			sync2(c)
		}
	})
	if want := int64((rounds + 3) * words); rep.SentWords[0] != want {
		t.Fatalf("sent words %d, want %d", rep.SentWords[0], want)
	}
	// ReadMemStats itself and the runtime's background activity can
	// account for a handful of mallocs; the loop moves 400 messages, so a
	// per-message allocation would show up as >=400.
	if mallocs > 50 {
		t.Fatalf("steady-state exchange performed %d mallocs over %d rounds, want ~0 — Send or RecvInto is allocating per message", mallocs, rounds)
	}
}

// TestOutOfOrderReceiveZeroAlloc pins the held list's reuse: rank 1
// receives each round's two messages in the opposite order rank 0 sent
// them, so every round holds one message, and after warm-up the loop
// still allocates nothing.
func TestOutOfOrderReceiveZeroAlloc(t *testing.T) {
	const words = 96
	const rounds = 200
	_, mallocs := steadyMallocs(t, rounds, func(c *Comm) func() {
		src := [3][]float64{nil, make([]float64, words), make([]float64, words)}
		src[1][0], src[2][0] = 1, 2
		dst := make([]float64, words)
		return func() {
			if c.Rank() == 0 {
				c.Send(1, 1, src[1])
				c.Send(1, 2, src[2])
			} else {
				for _, tag := range [2]int{2, 1} {
					if c.RecvInto(0, tag, dst); dst[0] != float64(tag) {
						t.Errorf("tag %d delivered the payload of tag %g", tag, dst[0])
					}
				}
			}
			sync2(c)
		}
	})
	if mallocs > 50 {
		t.Fatalf("out-of-order exchange performed %d mallocs over %d rounds, want ~0 — holding a message is allocating", mallocs, rounds)
	}
}
