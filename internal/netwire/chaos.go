package netwire

import "repro/internal/machine"

// frameWrite is one decided write of pkt's frame to rank to.
type frameWrite struct {
	to    int
	frame []byte
	reset bool // write half the frame, then tear the connection down
	pkt   machine.Packet
}

// chaosSend is send under a fault plan: the socket realization of the
// plan. nd.chaos, the rank's fault.Decider, decides the packet's fate, and
// chaosSend carries the verdict out on the packet's frame: below the
// reliable transport and the codec, so retransmissions and acks cross a
// genuinely hostile wire, and below the machine's wire meters, so a
// dropped frame has been metered as sent. A corrupt frame has one payload
// byte flipped, which fails the receiver's FNV-1a trailer check and drops
// the whole connection; a reset writes half the frame and tears the
// connection down. A node keeps its decider for its whole life, so a
// relaunched machine that reuses the node does not crash again. Every
// frame chaosSend loses it reports once.
func (nd *node) chaosSend(to int, pkt machine.Packet) {
	nd.chaosMu.Lock()
	v := nd.chaos.Next(pkt, nd.held != nil)
	if v.Crash {
		nd.chaosMu.Unlock()
		panic(machine.CrashError{Rank: nd.rank, Op: v.Op})
	}
	var out []frameWrite
	if v.Drop {
		nd.reportDrop(pkt, "chaos drop")
	} else {
		w := frameWrite{to: to, frame: AppendFrame(nil, pkt), reset: v.Reset, pkt: pkt}
		if v.Corrupt {
			// Flip one payload byte without fixing the trailer.
			w.frame[framePrefixLen+frameHeaderLen+v.Op%(8*len(pkt.Data))] ^= 0x81
		}
		out = append(out, w)
		if v.Dup {
			out = append(out, w)
		}
	}
	if nd.held != nil {
		out = append(out, *nd.held)
		nd.held = nil
	} else if v.Hold {
		nd.held = &out[0]
		out = nil
	}
	nd.chaosMu.Unlock()
	for _, w := range out {
		w.write(nd)
	}
}

// write writes the frame to rank w.to over nd's connection and reports
// the frame if it is lost. A reset writes only the first half of the
// frame and tears the connection down, so the receiver sees a torn frame
// and drops the stream.
func (w frameWrite) write(nd *node) {
	pc, err := nd.conn(w.to)
	if err != nil {
		nd.reportDrop(w.pkt, err.Error())
		return
	}
	frame := w.frame
	if w.reset {
		frame = frame[:len(frame)/2]
	}
	pc.mu.Lock()
	_, err = pc.conn.Write(frame)
	pc.mu.Unlock()
	switch {
	case w.reset:
		// The torn write is the fault, not a wire failure.
		nd.invalidate(w.to, pc)
		nd.reportDrop(w.pkt, "reset")
	case err != nil:
		nd.invalidate(w.to, pc)
		nd.reportDrop(w.pkt, err.Error())
	}
}
