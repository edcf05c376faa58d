package partition

import (
	"testing"

	"repro/internal/intmath"
	"repro/internal/steiner"
	"repro/internal/tensor"
)

func mustSpherical(t testing.TB, q int) *Tetrahedral {
	t.Helper()
	part, err := NewSpherical(q)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func TestTable1Shape(t *testing.T) {
	// Table 1 of the paper: q=3, m=10, P=30, |Rp|=4, |Np|=3 per
	// processor, and exactly 10 processors hold a central diagonal block.
	part := mustSpherical(t, 3)
	if part.M != 10 || part.P != 30 || part.R != 4 {
		t.Fatalf("m=%d P=%d r=%d", part.M, part.P, part.R)
	}
	central := 0
	for p := 0; p < part.P; p++ {
		if len(part.Rp[p]) != 4 {
			t.Fatalf("|R_%d| = %d", p, len(part.Rp[p]))
		}
		if len(part.Np[p]) != 3 {
			t.Fatalf("|N_%d| = %d", p, len(part.Np[p]))
		}
		central += len(part.Dp[p])
	}
	if central != 10 {
		t.Fatalf("central blocks assigned: %d, want 10", central)
	}
	if err := part.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTable2Shape(t *testing.T) {
	// Table 2: every row block of a vector is required by q(q+1) = 12
	// processors for q=3.
	part := mustSpherical(t, 3)
	for i := 0; i < part.M; i++ {
		if len(part.Qi[i]) != 12 {
			t.Fatalf("|Q_%d| = %d, want 12", i, len(part.Qi[i]))
		}
	}
}

func TestTable3SQS8Shape(t *testing.T) {
	// Table 3 (Appendix A): the Steiner (8,4,3) system gives m=8, P=14,
	// |Np|=4, 8 central blocks assigned, and |Qi|=7.
	part, err := New(steiner.SQS8())
	if err != nil {
		t.Fatal(err)
	}
	if part.M != 8 || part.P != 14 {
		t.Fatalf("m=%d P=%d", part.M, part.P)
	}
	central := 0
	for p := 0; p < part.P; p++ {
		if len(part.Np[p]) != 4 {
			t.Fatalf("|N_%d| = %d, want 4", p, len(part.Np[p]))
		}
		central += len(part.Dp[p])
	}
	if central != 8 {
		t.Fatalf("central blocks: %d, want 8", central)
	}
	for i := 0; i < part.M; i++ {
		if len(part.Qi[i]) != 7 {
			t.Fatalf("|Q_%d| = %d, want 7", i, len(part.Qi[i]))
		}
	}
	if err := part.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateAcrossQ(t *testing.T) {
	for _, q := range []int{2, 3, 4} {
		part := mustSpherical(t, q)
		if err := part.Validate(); err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
	}
}

func TestOffDiagonalBlockCounts(t *testing.T) {
	// Each processor owns (q+1)q(q−1)/6 off-diagonal blocks (§6.1.1), and
	// the union over processors covers all off-diagonal blocks exactly
	// once (Steiner property).
	for _, q := range []int{2, 3, 4} {
		part := mustSpherical(t, q)
		want := (q + 1) * q * (q - 1) / 6
		total := 0
		for p := 0; p < part.P; p++ {
			got := len(part.OffDiagonalBlocks(p))
			if got != want {
				t.Fatalf("q=%d: processor %d owns %d off-diagonal blocks, want %d", q, p, got, want)
			}
			total += got
		}
		if wantTotal := intmath.StrictTetrahedral(part.M); total != wantTotal {
			t.Fatalf("q=%d: %d off-diagonal blocks total, want %d", q, total, wantTotal)
		}
	}
}

func TestBlockTypeCounts(t *testing.T) {
	// §6.1: the lower block tetrahedron splits into (q²+1)q²(q²−1)/6
	// off-diagonal, q²(q²+1) non-central diagonal, and q²+1 central
	// blocks.
	part := mustSpherical(t, 3)
	m := part.M
	off, non, cen := 0, 0, 0
	tensor.BlocksOfTetrahedron(m, func(I, J, K int) {
		switch tensor.KindOfBlock(I, J, K) {
		case tensor.OffDiagonal:
			off++
		case tensor.Central:
			cen++
		default:
			non++
		}
	})
	q2 := 9
	if off != (q2+1)*q2*(q2-1)/6 {
		t.Errorf("off-diagonal count %d", off)
	}
	if non != q2*(q2+1) {
		t.Errorf("non-central count %d", non)
	}
	if cen != q2+1 {
		t.Errorf("central count %d", cen)
	}
}

func TestRowBlockChunksCoverExactly(t *testing.T) {
	part := mustSpherical(t, 2) // |Qi| = 6
	for _, b := range []int{6, 12, 7, 5, 1} {
		for i := 0; i < part.M; i++ {
			chunks := part.RowBlockChunks(i, b)
			pos := 0
			for _, ch := range chunks {
				if ch.Lo != pos {
					t.Fatalf("b=%d row %d: chunk gap at %d", b, i, pos)
				}
				if ch.Hi < ch.Lo {
					t.Fatalf("b=%d row %d: negative chunk", b, i)
				}
				pos = ch.Hi
				if !part.Owns(ch.Proc, i) {
					t.Fatalf("b=%d row %d: chunk owner %d not in Q_i", b, i, ch.Proc)
				}
			}
			if pos != b {
				t.Fatalf("b=%d row %d: chunks cover %d of %d", b, i, pos, b)
			}
		}
	}
}

func TestVectorWordsPerProcessor(t *testing.T) {
	// §6.1.2: with b divisible by q(q+1), each processor owns exactly
	// (q+1)·b/(q(q+1)) = n/P elements of each vector.
	for _, q := range []int{2, 3} {
		part := mustSpherical(t, q)
		b := q * (q + 1) * 2 // divisible by |Qi| = q(q+1)
		n := part.M * b
		want := n / part.P
		owned := make([]int, part.P)
		for i := 0; i < part.M; i++ {
			for _, ch := range part.RowBlockChunks(i, b) {
				owned[ch.Proc] += ch.Hi - ch.Lo
			}
		}
		for p, w := range owned {
			if w != want {
				t.Fatalf("q=%d: processor %d owns %d vector words, want %d", q, p, w, want)
			}
		}
	}
}

// TestOwnedRange: OwnedRange must return p's entry of RowBlockChunks for
// every (p, i), including block edges below |Q_i| where chunks are empty,
// and must allocate nothing: layout set-up calls it once per segment.
func TestOwnedRange(t *testing.T) {
	sqs8, err := New(steiner.SQS8())
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []*Tetrahedral{mustSpherical(t, 2), mustSpherical(t, 3), mustSpherical(t, 4), sqs8} {
		nq := len(part.Qi[0])
		for b := 1; b <= nq+2; b++ {
			for i := 0; i < part.M; i++ {
				want := make(map[int]Chunk)
				for _, ch := range part.RowBlockChunks(i, b) {
					want[ch.Proc] = ch
				}
				for p := 0; p < part.P; p++ {
					lo, hi, ok := part.OwnedRange(p, i, b)
					ch, owned := want[p]
					if ok != owned || ok != part.Owns(p, i) {
						t.Fatalf("m=%d b=%d: OwnedRange(%d, %d) ok=%v, Q_i membership %v", part.M, b, p, i, ok, owned)
					}
					if ok && (lo != ch.Lo || hi != ch.Hi) {
						t.Fatalf("m=%d b=%d: OwnedRange(%d, %d) = [%d,%d), RowBlockChunks [%d,%d)",
							part.M, b, p, i, lo, hi, ch.Lo, ch.Hi)
					}
				}
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			for i := 0; i < part.M; i++ {
				for p := 0; p < part.P; p++ {
					part.OwnedRange(p, i, nq+1)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("m=%d: OwnedRange allocates %.0f objects per sweep, want 0", part.M, allocs)
		}
	}
}

func TestStorageWordsApproachesTheory(t *testing.T) {
	// §6.1.3: each processor stores ≈ n³/(6P) tensor words; exact bound:
	// (q+1)q(q−1)/6·b³ + q·b²(b+1)/2 + b(b+1)(b+2)/6.
	for _, q := range []int{2, 3} {
		part := mustSpherical(t, q)
		b := 8
		bound := (q+1)*q*(q-1)/6*b*b*b + q*b*b*(b+1)/2 + b*(b+1)*(b+2)/6
		totalStored := 0
		for p := 0; p < part.P; p++ {
			w := part.StorageWords(p, b)
			if w > bound {
				t.Fatalf("q=%d: processor %d stores %d > bound %d", q, p, w, bound)
			}
			totalStored += w
		}
		// All blocks stored exactly once: total == Tetrahedral(m·b).
		if want := intmath.Tetrahedral(part.M * b); totalStored != want {
			t.Fatalf("q=%d: total storage %d, want %d", q, totalStored, want)
		}
	}
}

func TestSharedRowBlocksDistribution(t *testing.T) {
	// §7.2: for the spherical family each processor shares 2 row blocks
	// with q²(q+1)/2 processors and exactly 1 with q²−1 processors.
	for _, q := range []int{2, 3} {
		part := mustSpherical(t, q)
		wantTwo := q * q * (q + 1) / 2
		wantOne := q*q - 1
		for p := 0; p < part.P; p++ {
			two, one := 0, 0
			for p2 := 0; p2 < part.P; p2++ {
				if p2 == p {
					continue
				}
				switch part.SharedRowBlocks(p, p2) {
				case 2:
					two++
				case 1:
					one++
				case 0:
				default:
					// Two distinct Steiner blocks share at most 2 points
					// (3 shared points would violate the Steiner
					// property).
					t.Fatalf("q=%d: processors %d,%d share %d row blocks",
						q, p, p2, part.SharedRowBlocks(p, p2))
				}
			}
			if two != wantTwo || one != wantOne {
				t.Fatalf("q=%d processor %d: 2-sharing %d (want %d), 1-sharing %d (want %d)",
					q, p, two, wantTwo, one, wantOne)
			}
		}
	}
}

func TestSQS8SharingMatchesFigure1(t *testing.T) {
	// Appendix A: in SQS(8) every processor shares 2 row blocks with 12
	// processors and is disjoint from 1 — hence the 12-step schedule of
	// Figure 1.
	part, err := New(steiner.SQS8())
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < part.P; p++ {
		two, zero := 0, 0
		for p2 := 0; p2 < part.P; p2++ {
			if p2 == p {
				continue
			}
			switch part.SharedRowBlocks(p, p2) {
			case 2:
				two++
			case 0:
				zero++
			default:
				t.Fatalf("processors %d,%d share %d row blocks", p, p2, part.SharedRowBlocks(p, p2))
			}
		}
		if two != 12 || zero != 1 {
			t.Fatalf("processor %d: 2-sharing %d, disjoint %d", p, two, zero)
		}
	}
}

func TestDeterministic(t *testing.T) {
	a := mustSpherical(t, 2)
	b := mustSpherical(t, 2)
	for p := 0; p < a.P; p++ {
		ab, bb := a.Blocks(p), b.Blocks(p)
		if len(ab) != len(bb) {
			t.Fatalf("processor %d: nondeterministic block count", p)
		}
		for i := range ab {
			if ab[i] != bb[i] {
				t.Fatalf("processor %d block %d: %v vs %v", p, i, ab[i], bb[i])
			}
		}
	}
}

func TestCoordKind(t *testing.T) {
	if (Coord{3, 2, 1}).Kind() != tensor.OffDiagonal {
		t.Error("off-diagonal kind")
	}
	if (Coord{2, 2, 2}).Kind() != tensor.Central {
		t.Error("central kind")
	}
}

func BenchmarkNewSphericalQ3(b *testing.B) {
	sys, err := steiner.Spherical(3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(sys); err != nil {
			b.Fatal(err)
		}
	}
}
