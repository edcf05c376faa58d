package machine

import (
	"math/bits"
	"sync"
)

// payloadPool recycles message payload buffers so a steady-state exchange
// loop (a resident parallel.Session applying the same schedule over and
// over) performs no allocations: Send draws its defensive copy from the
// pool, and RecvInto returns the buffer once the receiver has copied the
// payload out.
//
// Buffers are grouped in power-of-two size classes. Only buffers whose
// capacity is an exact class size are accepted back — everything else is
// left to the garbage collector — so a recycled buffer can always serve
// any request that maps to its class.
//
// Size: the pool allocates only when a class is empty, so each class
// holds at most as many buffers as were outstanding together at its peak.
// A parallel.Session posts every message of a phase before its first
// receive, and a rank starts the next application (Apply, batch or power
// iteration) only after every rank has received this one's exchange
// messages, so the pool holds about one application's message words,
// each rounded up to a power of two. It is freed with its machine.
//
// Safety under faults: a buffer re-enters the pool only via RecvInto, and
// only for packets whose Recycle flag is set. The direct transport sets
// the flag (it holds no reference after delivery); the reliable transport
// does not (it keeps payloads in its retransmission window), so a
// retransmitted or duplicated message can never alias a reused buffer.
type payloadPool struct {
	mu      sync.Mutex
	classes map[int][][]float64
}

// classSize returns the power-of-two capacity class for a payload of n
// words (n >= 1).
func classSize(n int) int {
	return 1 << bits.Len(uint(n-1))
}

// get returns a length-n buffer, reusing a pooled one when available.
// Contents are unspecified; callers overwrite the full length.
func (pp *payloadPool) get(n int) []float64 {
	if n == 0 {
		return nil
	}
	cls := classSize(n)
	pp.mu.Lock()
	if list := pp.classes[cls]; len(list) > 0 {
		buf := list[len(list)-1]
		list[len(list)-1] = nil
		pp.classes[cls] = list[:len(list)-1]
		pp.mu.Unlock()
		return buf[:n]
	}
	pp.mu.Unlock()
	return make([]float64, n, cls)
}

// put returns a buffer to its size class. Buffers whose capacity is not an
// exact class size (callers may hand us foreign slices) are dropped.
func (pp *payloadPool) put(buf []float64) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	pp.mu.Lock()
	if pp.classes == nil {
		pp.classes = make(map[int][][]float64)
	}
	pp.classes[c] = append(pp.classes[c], buf[:c])
	pp.mu.Unlock()
}
