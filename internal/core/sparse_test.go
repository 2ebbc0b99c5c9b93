package core

import (
	"bytes"
	"testing"

	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
)

// TestLargeSparseSegment exercises the paper's headline structural claim
// (section 4.1): segments and address spaces can be enormous and sparse;
// only resident pages cost anything.
func TestLargeSparseSegment(t *testing.T) {
	p, _ := newTestPVM(t, 64)
	sg := seg.NewSegment("huge", pg, p.Clock())
	// Content at wildly scattered offsets, terabyte-scale apart.
	offsets := []int64{0, 1 << 30, 1 << 40, (1 << 42) + 5*pg}
	for i, off := range offsets {
		sg.Store().WriteAt(off, pattern(byte(i+1), 128))
	}

	c := p.CacheCreate(sg)
	ctx, _ := p.ContextCreate()
	// One window per fragment, in one sparse address space.
	for i, off := range offsets {
		va := base + gmi.VA(i)*0x1000_0000
		if _, err := ctx.RegionCreate(va, pg, gmi.ProtRW, c, off); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		got := mustRead(t, ctx, va, 128)
		if !bytes.Equal(got, pattern(byte(i+1), 128)) {
			t.Fatalf("window %d content wrong", i)
		}
	}
	// Structure sizes follow residency, not virtual size.
	if n := c.Resident(); n != len(offsets) {
		t.Fatalf("resident=%d, want %d", n, len(offsets))
	}
	check(t, p)
}
