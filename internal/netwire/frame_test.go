package netwire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/machine"
)

func randPacket(rng *rand.Rand, nwords int) machine.Packet {
	pkt := machine.Packet{
		From:  rng.Intn(64),
		To:    rng.Intn(64),
		Tag:   rng.Intn(1 << 20),
		Seq:   rng.Int31(),
		Kind:  machine.PacketKind(rng.Intn(2)),
		Check: rng.Uint64(),
		Epoch: rng.Int63(),
	}
	if nwords > 0 {
		pkt.Data = make([]float64, nwords)
		for i := range pkt.Data {
			switch rng.Intn(8) {
			case 0:
				pkt.Data[i] = math.Inf(1)
			case 1:
				pkt.Data[i] = math.NaN()
			case 2:
				pkt.Data[i] = 0
			default:
				pkt.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
		}
	}
	return pkt
}

func samePacket(a, b machine.Packet) bool {
	if a.From != b.From || a.To != b.To || a.Tag != b.Tag || a.Seq != b.Seq ||
		a.Kind != b.Kind || a.Check != b.Check || a.Epoch != b.Epoch || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestFrameRoundTrip: encode→decode is the identity for payload widths
// from empty to wide, with NaN/Inf payload bits preserved exactly.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	widths := []int{0, 1, 2, 7, 63, 1024, 4096}
	for _, n := range widths {
		for trial := 0; trial < 8; trial++ {
			pkt := randPacket(rng, n)
			frame := AppendFrame(nil, pkt)
			if want := FrameWords(n) * 8; int64(len(frame)) > want || int64(len(frame)) < want-7 {
				t.Fatalf("n=%d: frame %d bytes, FrameWords %d words", n, len(frame), FrameWords(n))
			}
			got, err := DecodeFrame(frame[framePrefixLen:])
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if !samePacket(pkt, got) {
				t.Fatalf("n=%d: round trip %+v != %+v", n, got, pkt)
			}
		}
	}
}

// TestFrameStreamRoundTrip: many frames back to back through ReadFrame's
// buffered reader, as the connection reader consumes them.
func TestFrameStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	var stream []byte
	var pkts []machine.Packet
	for i := 0; i < 200; i++ {
		pkt := randPacket(rng, rng.Intn(50))
		pkts = append(pkts, pkt)
		stream = AppendFrame(stream, pkt)
	}
	br := bufio.NewReaderSize(bytes.NewReader(stream), 97) // odd size to split frames across fills
	var scratch []byte
	for i, want := range pkts {
		got, err := ReadFrame(br, &scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !samePacket(want, got) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := ReadFrame(br, &scratch); !errors.Is(err, io.EOF) {
		t.Fatalf("clean stream end: %v", err)
	}
}

// TestFrameCorruption: flipping any byte of the frame body is detected by
// the trailing checksum (or by a bounds check, for the length-adjacent
// payload-count field).
func TestFrameCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	pkt := randPacket(rng, 9)
	frame := AppendFrame(nil, pkt)
	for i := framePrefixLen; i < len(frame); i++ {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		if _, err := DecodeFrame(mut[framePrefixLen:]); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
}

// TestFrameTorn: truncation mid-prefix, mid-header and mid-payload all
// surface as errors, never as a silently short packet.
func TestFrameTorn(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	pkt := randPacket(rng, 16)
	frame := AppendFrame(nil, pkt)
	cuts := []int{1, 3, framePrefixLen + 5, framePrefixLen + frameHeaderLen + 3, len(frame) - 1}
	for _, cut := range cuts {
		br := bufio.NewReader(bytes.NewReader(frame[:cut]))
		var scratch []byte
		if _, err := ReadFrame(br, &scratch); err == nil {
			t.Fatalf("torn frame at byte %d read successfully", cut)
		} else if !strings.Contains(err.Error(), "torn") {
			t.Fatalf("torn frame at byte %d: %v", cut, err)
		}
	}
}

// TestFrameLengthBounds: a corrupted length prefix cannot drive a huge
// allocation or a zero-length body.
func TestFrameLengthBounds(t *testing.T) {
	for _, body := range []uint32{0, 7, frameHeaderLen + 8*MaxFrameWords + frameTrailerLen + 1, 1 << 31} {
		raw := binary.BigEndian.AppendUint32(nil, body)
		raw = append(raw, make([]byte, 64)...)
		br := bufio.NewReader(bytes.NewReader(raw))
		var scratch []byte
		if _, err := ReadFrame(br, &scratch); err == nil || !strings.Contains(err.Error(), "out of bounds") {
			t.Fatalf("length %d: %v", body, err)
		}
	}
}
