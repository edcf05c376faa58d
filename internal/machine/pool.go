package machine

import (
	"math/bits"
	"sync/atomic"
)

// payloadPool is one rank's pool of payload buffers: Send draws its
// defensive copy from the sender's pool, and RecvInto hands the buffer
// back to it once the payload is copied out, so a steady-state exchange
// loop allocates nothing — a one-way flow included.
//
// There is no lock and no map. Free buffers sit in stacks, indexed by
// power-of-two size class, that only the owner touches. A receiver hands
// a buffer back through a ring only it fills and only the owner empties,
// one per (owner, receiver) pair, so no word is shared by more than two
// ranks; the owner empties its rings when the class it needs is empty.
// A buffer returned to a full ring is left to the garbage collector, so
// an owner allocates only when it has more buffers of a class
// outstanding than ever before or a full ring dropped one: it holds about
// one application's messages for a parallel.Session, which posts a whole
// phase before it receives.
//
// Only packets marked Recycle come back: the direct transport sets the
// mark, the reliable transport, whose retransmission window aliases the
// payload, does not. Only buffers whose capacity is an exact class size
// are taken, so a recycled buffer can serve any request of its class.
type payloadPool struct {
	free    [64][][]float64              // by class; class c holds 1<<c words
	returns []atomic.Pointer[returnRing] // returns[r]: rank r's ring back to this pool
}

const returnSlots = 16

// returnRing carries buffers from one receiver back to their owner. head
// and tail sit on cache lines of their own, so filling and emptying do
// not contend.
type returnRing struct {
	head atomic.Uint64 // next slot the owner empties
	_    [56]byte
	tail atomic.Uint64 // next slot the receiver fills
	// seenHead is the receiver's last read of head: the receiver reads
	// the owner's line again only when the ring looks full.
	seenHead uint64
	_        [48]byte
	slot     [returnSlots][]float64
}

// classOf returns the power-of-two class of a payload of n words (n ≥ 1):
// buffers of class c hold 1<<c words.
func classOf(n int) int { return bits.Len(uint(n - 1)) }

// get returns a length-n buffer, reusing a pooled one when available.
// Contents are unspecified; callers overwrite the full length. Only the
// owning rank calls it.
func (pp *payloadPool) get(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := classOf(n)
	if len(pp.free[c]) == 0 {
		pp.collect()
	}
	if list := pp.free[c]; len(list) > 0 {
		buf := list[len(list)-1]
		list[len(list)-1] = nil
		pp.free[c] = list[:len(list)-1]
		return buf[:n]
	}
	return make([]float64, n, 1<<c)
}

// collect empties every return ring into the free stacks. Only the owning
// rank calls it.
func (pp *payloadPool) collect() {
	for i := range pp.returns {
		r := pp.returns[i].Load()
		if r == nil {
			continue
		}
		h, t := r.head.Load(), r.tail.Load()
		if h == t {
			continue
		}
		for ; h != t; h++ {
			buf := r.slot[h%returnSlots]
			r.slot[h%returnSlots] = nil
			c := classOf(cap(buf))
			pp.free[c] = append(pp.free[c], buf)
		}
		r.head.Store(h)
	}
}

// giveBack returns buf to pp, the pool of the rank that sent it, through
// receiver's ring. Only the receiving rank calls it. Buffers whose
// capacity is not an exact class size (foreign slices) are dropped.
func (pp *payloadPool) giveBack(receiver int, buf []float64) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	r := pp.returns[receiver].Load()
	if r == nil {
		r = new(returnRing)
		pp.returns[receiver].Store(r)
	}
	t := r.tail.Load()
	if t-r.seenHead == returnSlots {
		if r.seenHead = r.head.Load(); t-r.seenHead == returnSlots {
			return // full: the owner has enough on its way back
		}
	}
	r.slot[t%returnSlots] = buf[:c]
	r.tail.Store(t + 1)
}
