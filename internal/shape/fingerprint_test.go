package shape

import "testing"

func TestFingerprintStableAcrossRebuilds(t *testing.T) {
	// A Δ records no provenance: its spec is enumerated from its offsets.
	for _, orig := range []*Shape{L1(3, 2), Delta(L1(2, 1), Linf(2, 2))} {
		fp1, err := orig.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		sp, err := orig.Spec()
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		fp2, err := rebuilt.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp1 != fp2 || !rebuilt.Equal(orig) {
			t.Fatalf("%s: rebuilt shape differs: %q vs %q", orig.Name(), fp1, fp2)
		}
	}
}

func TestFingerprintDistinguishesShapes(t *testing.T) {
	shapes := []*Shape{L1(2, 1), L2(2, 1), Linf(2, 1), L1(2, 2), L1(3, 1)}
	seen := make(map[string]string)
	for _, s := range shapes {
		fp, err := s.Fingerprint()
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("collision: %s and %s both fingerprint to %q", prev, s.Name(), fp)
		}
		seen[fp] = s.Name()
	}
}

func TestFingerprintOffsetsOrderInsensitive(t *testing.T) {
	a, err := FromOffsets("a", [][]int64{{0, 0}, {1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := FromOffsets("b-different-name", [][]int64{{0, 1}, {0, 0}, {1, 0}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	fpA, _ := a.Fingerprint()
	fpB, _ := b.Fingerprint()
	if fpA != fpB {
		t.Fatalf("same offset set fingerprints differ: %q vs %q", fpA, fpB)
	}
}

func TestFingerprintEmbed(t *testing.T) {
	e1, err := Embed(L1(2, 1), 3, []int{1, 2}, map[int][2]int64{0: {-5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Embed(L1(2, 1), 3, []int{1, 2}, map[int][2]int64{0: {-6, 0}})
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := e1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := e2.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Fatalf("different windows fingerprint identically: %q", fp1)
	}
}
