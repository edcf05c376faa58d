// Package netwire moves machine packets over real sockets: a TCP and a
// unix-domain-socket implementation of machine.BackendWire with
// length-prefixed binary framing, per-peer persistent connections with
// lazy dial, and framed-byte wire metering. Loopback runs all P ranks of
// one process over real sockets (the conformance configuration); Client
// plus the rendezvous Coordinator run them as separate OS processes.
//
// The backend carries raw packets only. Everything the machine.Wire
// contract adds — logical/wire meters, epoch stamping and fencing, abort
// unwinding — is decorated on by the machine, identically to the
// in-memory SimBackend, so transports and the recovery protocol compose
// unchanged over sockets.
package netwire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/machine"
)

// Frame layout, all integers big-endian:
//
//	u32  body length (everything below; excludes these 4 bytes)
//	i32  from
//	i32  to
//	i32  tag
//	i64  seq
//	u8   kind
//	u64  check   (transport payload checksum, opaque here)
//	i64  epoch
//	u32  nwords
//	      8·nwords bytes of float64 payload (IEEE-754 bits)
//	u64  frame checksum: FNV-1a over the body bytes above it
//
// The trailing checksum covers the header too, so a torn or corrupted
// frame is detected before any field is trusted; the connection is then
// dropped (lossy-close semantics — the recovery layer, not the codec,
// resolves the loss).
const (
	frameHeaderLen  = 41 // from .. nwords
	frameTrailerLen = 8  // FNV-1a checksum
	framePrefixLen  = 4  // body length

	// MaxFrameWords bounds a frame's payload so a corrupted length prefix
	// cannot make a reader allocate gigabytes. 1<<24 words = 128 MiB of
	// payload, far above any schedule step in this repo.
	MaxFrameWords = 1 << 24
)

// errChecksum reports a frame whose FNV-1a trailer does not match.
var errChecksum = errors.New("netwire: frame checksum mismatch")

// FrameWords returns the full framed size — prefix, header, payload and
// trailer — of an n-word packet, in 8-byte words rounded up. This is what
// a netwire run's wire meters count, so the Report's wire-vs-logical
// split measures what actually crossed the socket.
func FrameWords(n int) int64 {
	bytes := framePrefixLen + frameHeaderLen + 8*n + frameTrailerLen
	return int64((bytes + 7) / 8)
}

// AppendFrame appends pkt's complete wire frame (length prefix included)
// to dst and returns the extended slice.
func AppendFrame(dst []byte, pkt machine.Packet) []byte {
	n := len(pkt.Data)
	body := frameHeaderLen + 8*n + frameTrailerLen
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(pkt.From)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(pkt.To)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(pkt.Tag)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(pkt.Seq)))
	dst = append(dst, byte(pkt.Kind))
	dst = binary.BigEndian.AppendUint64(dst, pkt.Check)
	dst = binary.BigEndian.AppendUint64(dst, uint64(pkt.Epoch))
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	for _, v := range pkt.Data {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return binary.BigEndian.AppendUint64(dst, machine.ChecksumBytes(dst[start:]))
}

// DecodeFrame parses one frame body (the bytes after the length prefix).
// The payload is freshly allocated — the frame never aliases the read
// buffer, because packets outlive the reader's next fill.
func DecodeFrame(body []byte) (machine.Packet, error) {
	if len(body) < frameHeaderLen+frameTrailerLen {
		return machine.Packet{}, fmt.Errorf("netwire: frame body %d bytes, need at least %d", len(body), frameHeaderLen+frameTrailerLen)
	}
	sumAt := len(body) - frameTrailerLen
	if got := binary.BigEndian.Uint64(body[sumAt:]); got != machine.ChecksumBytes(body[:sumAt]) {
		return machine.Packet{}, errChecksum
	}
	pkt := machine.Packet{
		From:  int(int32(binary.BigEndian.Uint32(body[0:]))),
		To:    int(int32(binary.BigEndian.Uint32(body[4:]))),
		Tag:   int(int32(binary.BigEndian.Uint32(body[8:]))),
		Seq:   int32(int64(binary.BigEndian.Uint64(body[12:]))),
		Kind:  machine.PacketKind(body[20]),
		Check: binary.BigEndian.Uint64(body[21:]),
		Epoch: int64(binary.BigEndian.Uint64(body[29:])),
	}
	n := int(binary.BigEndian.Uint32(body[37:]))
	if n > MaxFrameWords {
		return machine.Packet{}, fmt.Errorf("netwire: frame declares %d payload words, cap %d", n, MaxFrameWords)
	}
	if len(body) != frameHeaderLen+8*n+frameTrailerLen {
		return machine.Packet{}, fmt.Errorf("netwire: frame body %d bytes for %d payload words", len(body), n)
	}
	if n > 0 {
		pkt.Data = make([]float64, n)
		for i := range pkt.Data {
			pkt.Data[i] = math.Float64frombits(binary.BigEndian.Uint64(body[frameHeaderLen+8*i:]))
		}
	}
	return pkt, nil
}

// ReadFrame reads one length-prefixed frame from r, reusing *scratch as
// the body buffer across calls. A short read anywhere — mid-prefix,
// mid-header, mid-payload — surfaces as an error (io.EOF only when the
// stream ends cleanly between frames).
func ReadFrame(r *bufio.Reader, scratch *[]byte) (machine.Packet, error) {
	var prefix [framePrefixLen]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return machine.Packet{}, fmt.Errorf("netwire: torn frame prefix: %w", err)
		}
		return machine.Packet{}, err
	}
	body := int(binary.BigEndian.Uint32(prefix[:]))
	if body < frameHeaderLen+frameTrailerLen || body > frameHeaderLen+8*MaxFrameWords+frameTrailerLen {
		return machine.Packet{}, fmt.Errorf("netwire: frame length %d out of bounds", body)
	}
	if cap(*scratch) < body {
		*scratch = make([]byte, body)
	}
	buf := (*scratch)[:body]
	if _, err := io.ReadFull(r, buf); err != nil {
		return machine.Packet{}, fmt.Errorf("netwire: torn frame body: %w", err)
	}
	return DecodeFrame(buf)
}
