package netwire

// The distributed control plane: one JSON object per line on a rank's
// persistent connection to the coordinator. The data plane (packet
// frames, node.go) never touches these connections.
//
// Rank → coordinator:
//
//	hello    {rank, addr}          — registration; addr is the data listener
//	ready    {rank, epoch}         — state restored, machine parked
//	done     {rank, epoch, iter,   — op iter finished and the checkpoint for
//	          flags, λ[, chunk]}     boundary iter+1 is durable; the last op
//	                                 of the run carries the owned chunks
//	quiesced {rank, epoch}         — machine retired after an abort
//
// Coordinator → rank:
//
//	resume   {epoch, iter, addrs}  — (re)start: adopt the portmap, restore
//	                                 boundary iter (0 seeds fresh), reply ready
//	op       {epoch, iter}         — run op iter, reply done
//	abort    {epoch}               — epoch abort: unwind and quiesce
//	stop     {}                    — shut down cleanly

// CtlMsg is one control-plane message, in either direction. The
// coordinator stamps Rank from the connection a message arrived on, so a
// rank cannot speak for another.
type CtlMsg struct {
	Type  string   `json:"type"`
	Rank  int      `json:"rank,omitempty"`
	Addr  string   `json:"addr,omitempty"`
	Addrs []string `json:"addrs,omitempty"`
	Epoch int64    `json:"epoch,omitempty"`
	Iter  int      `json:"iter,omitempty"`

	// done payload; float64s travel as IEEE-754 bit patterns so the
	// assembled vector is bit-identical to the rank's arena.
	Stop       bool     `json:"stop,omitempty"`
	Converged  bool     `json:"converged,omitempty"`
	Singular   bool     `json:"singular,omitempty"`
	LambdaBits uint64   `json:"lambdaBits,omitempty"`
	ChunkBits  []uint64 `json:"chunkBits,omitempty"`
}
