package netwire_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/netwire"
)

// TestDistributedClients drives the coordinator/client control plane with
// every "process" as a goroutine: p machines of one local rank each,
// exchanging over real TCP sockets, each round under its own tag. This is
// the distributed machine seam without the process-spawning layer on top
// (internal/cluster owns that).
func TestDistributedClients(t *testing.T) {
	const p = 3
	co, err := netwire.NewCoordinator("tcp", "127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	clients := make([]*netwire.Client, p)
	for r := 0; r < p; r++ {
		cl, err := netwire.NewClient("tcp", co.Addr(), r, p, netwire.ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		clients[r] = cl
	}
	for i := 0; i < p; i++ {
		ev := <-co.Events()
		if ev.Type != "hello" {
			t.Fatalf("event %d: %q, want hello", i, ev.Type)
		}
	}
	addrs, ok := co.Portmap()
	if !ok {
		t.Fatal("portmap incomplete after all hellos")
	}
	for _, cl := range clients {
		cl.Adopt(addrs)
	}

	results := make([][]float64, p)
	var wg sync.WaitGroup
	errs := make(chan error, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rep, err := machine.RunWith(p, machine.RunConfig{
				Backend:    clients[r],
				LocalRanks: []int{r},
			}, func(c *machine.Comm) {
				me := c.Rank()
				next, prev := (me+1)%p, (me+p-1)%p
				data := []float64{float64(me), float64(me * 10)}
				for round := 0; round < 4; round++ {
					c.Send(next, round, data)
					got := c.Recv(prev, round)
					if len(got) != 2 || got[0] != float64(prev) {
						errs <- errf("rank %d round %d: got %v", me, round, got)
						return
					}
					data = []float64{data[0], data[1] + 1}
				}
				results[me] = data
			})
			if err != nil {
				errs <- err
				return
			}
			if rep.SentMsgs[r] != 4 {
				errs <- errf("rank %d: %d sent msgs, want 4", r, rep.SentMsgs[r])
			}
		}(r)
	}
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		t.Fatal("distributed machines did not finish")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for r, got := range results {
		if got == nil {
			t.Fatalf("rank %d produced no result", r)
		}
	}
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
