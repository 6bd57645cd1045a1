package flash

import (
	"bytes"
	"testing"
	"testing/quick"

	"envy/internal/sim"
)

func testGeometry() Geometry {
	return Geometry{PageSize: 8, PagesPerSegment: 4, Segments: 4, Banks: 2}
}

func mustNew(t *testing.T, geo Geometry, opts ...Option) *Array {
	t.Helper()
	a, err := New(geo, PaperTiming(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestGeometryValidate(t *testing.T) {
	good := testGeometry()
	if err := good.Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	for name, g := range map[string]Geometry{
		"zero page size":     {PageSize: 0, PagesPerSegment: 4, Segments: 4, Banks: 2},
		"zero pages/segment": {PageSize: 8, PagesPerSegment: 0, Segments: 4, Banks: 2},
		"one segment":        {PageSize: 8, PagesPerSegment: 4, Segments: 1, Banks: 1},
		"zero banks":         {PageSize: 8, PagesPerSegment: 4, Segments: 4, Banks: 0},
		"banks not dividing": {PageSize: 8, PagesPerSegment: 4, Segments: 5, Banks: 2},
	} {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: geometry accepted", name)
		}
	}
}

func TestPaperGeometry(t *testing.T) {
	g := PaperGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.Capacity(); got != 2<<30 {
		t.Errorf("capacity = %d, want 2GiB", got)
	}
	if g.Segments != 128 {
		t.Errorf("segments = %d, want 128", g.Segments)
	}
	// 16 MB segments, as in §5.1.
	if got := int64(g.PageSize) * int64(g.PagesPerSegment); got != 16<<20 {
		t.Errorf("segment size = %d, want 16MiB", got)
	}
}

func TestPPNRoundTrip(t *testing.T) {
	g := testGeometry()
	if err := quick.Check(func(s, p uint8) bool {
		seg, page := int(s)%g.Segments, int(p)%g.PagesPerSegment
		gotSeg, gotPage := g.Split(g.PPN(seg, page))
		return gotSeg == seg && gotPage == page
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBankStriping(t *testing.T) {
	g := testGeometry()
	if g.BankOf(0) == g.BankOf(1) {
		t.Error("consecutive segments in the same bank; striping broken")
	}
	if g.BankOf(0) != g.BankOf(2) {
		t.Error("stride-Banks segments should share a bank")
	}
}

func TestProgramReadInvalidateErase(t *testing.T) {
	a := mustNew(t, testGeometry())
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ppn := a.Geometry().PPN(1, 2)

	if got := a.State(ppn); got != Free {
		t.Fatalf("initial state = %v", got)
	}
	a.Program(ppn, 42, payload)
	if got := a.State(ppn); got != Valid {
		t.Fatalf("state after program = %v", got)
	}
	if got := a.Owner(ppn); got != 42 {
		t.Errorf("owner = %d", got)
	}
	if !bytes.Equal(a.Page(ppn), payload) {
		t.Errorf("page = %v, want %v", a.Page(ppn), payload)
	}
	free, live, invalid := a.SegmentCounts(1)
	if free != 3 || live != 1 || invalid != 0 {
		t.Errorf("counts = %d/%d/%d", free, live, invalid)
	}

	a.Invalidate(ppn)
	if got := a.State(ppn); got != Invalid {
		t.Fatalf("state after invalidate = %v", got)
	}
	if got := a.Owner(ppn); got != NoPage {
		t.Errorf("owner after invalidate = %d", got)
	}
	free, live, invalid = a.SegmentCounts(1)
	if free != 3 || live != 0 || invalid != 1 {
		t.Errorf("counts = %d/%d/%d", free, live, invalid)
	}

	a.Erase(1)
	if got := a.State(ppn); got != Free {
		t.Fatalf("state after erase = %v", got)
	}
	if got := a.EraseCount(1); got != 1 {
		t.Errorf("erase count = %d", got)
	}
	free, live, invalid = a.SegmentCounts(1)
	if free != 4 || live != 0 || invalid != 0 {
		t.Errorf("counts after erase = %d/%d/%d", free, live, invalid)
	}
}

func TestWriteOnceViolationPanics(t *testing.T) {
	a := mustNew(t, testGeometry())
	ppn := a.Geometry().PPN(0, 0)
	a.Program(ppn, 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("reprogramming a valid page did not panic")
		}
	}()
	a.Program(ppn, 2, nil)
}

func TestEraseWithLiveDataPanics(t *testing.T) {
	a := mustNew(t, testGeometry())
	a.Program(a.Geometry().PPN(0, 0), 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("erasing a segment with live data did not panic")
		}
	}()
	a.Erase(0)
}

func TestInvalidateFreePanics(t *testing.T) {
	a := mustNew(t, testGeometry())
	defer func() {
		if recover() == nil {
			t.Error("invalidating a free page did not panic")
		}
	}()
	a.Invalidate(0)
}

func TestReadFreePagePanics(t *testing.T) {
	a := mustNew(t, testGeometry())
	defer func() {
		if recover() == nil {
			t.Error("reading a free page did not panic")
		}
	}()
	a.Page(0)
}

func TestDataless(t *testing.T) {
	a := mustNew(t, testGeometry(), Dataless())
	ppn := a.Geometry().PPN(0, 0)
	a.Program(ppn, 7, []byte{1, 2, 3})
	if got := a.Page(ppn); got != nil {
		t.Errorf("dataless Page = %v, want nil", got)
	}
	if a.Owner(ppn) != 7 || a.State(ppn) != Valid {
		t.Error("dataless array must still track state and ownership")
	}
}

// TestCopyPage pins the cleaner's relocation primitive: the copy lands
// with the source's bytes and the given owner, the source stays Valid
// (invalidation is the caller's job), and the source segment can be
// erased and reused without disturbing the copy — within a bank and
// across banks. On a dataless array the copy tracks state only.
func TestCopyPage(t *testing.T) {
	geo := testGeometry()
	a := mustNew(t, geo)
	src := geo.PPN(0, 0)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	a.Program(src, 9, payload)
	for _, dstSeg := range []int{2, 1} { // segment 2 shares bank 0; segment 1 is bank 1
		dst := geo.PPN(dstSeg, 0)
		a.CopyPage(dst, src, 9)
		if a.State(dst) != Valid || a.Owner(dst) != 9 {
			t.Fatalf("segment %d: copy state %v owner %d", dstSeg, a.State(dst), a.Owner(dst))
		}
		if a.State(src) != Valid {
			t.Fatalf("segment %d: CopyPage changed the source's state to %v", dstSeg, a.State(src))
		}
		if !bytes.Equal(a.Page(dst), payload) {
			t.Fatalf("segment %d: copy = %v, want %v", dstSeg, a.Page(dst), payload)
		}
	}
	if a.Programs() != 3 {
		t.Errorf("Programs = %d, want 3 (one program plus two copies)", a.Programs())
	}
	a.Invalidate(src)
	a.Erase(0)
	a.Program(src, 1, []byte{0xAA})
	if got := a.Page(geo.PPN(2, 0)); !bytes.Equal(got, payload) {
		t.Errorf("copy changed after its source segment was recycled: %v", got)
	}

	d := mustNew(t, geo, Dataless())
	d.Program(src, 4, payload)
	d.CopyPage(geo.PPN(1, 0), src, 4)
	if d.State(geo.PPN(1, 0)) != Valid || d.Page(geo.PPN(1, 0)) != nil {
		t.Error("dataless CopyPage must track state and store no bytes")
	}
}

func TestShortPayloadZeroFilled(t *testing.T) {
	a := mustNew(t, testGeometry())
	ppn := a.Geometry().PPN(0, 0)
	a.Program(ppn, 1, []byte{0xFF})
	got := a.Page(ppn)
	want := []byte{0xFF, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Errorf("page = %v, want %v", got, want)
	}
	// Page reuse after erase must not leak previous contents.
	a.Invalidate(ppn)
	a.Erase(0)
	a.Program(ppn, 2, nil)
	if !bytes.Equal(a.Page(ppn), make([]byte, 8)) {
		t.Error("reprogrammed page leaked stale bytes")
	}
}

func TestLivePagesOrder(t *testing.T) {
	a := mustNew(t, testGeometry())
	g := a.Geometry()
	for i := 0; i < 4; i++ {
		a.Program(g.PPN(2, i), uint32(10+i), nil)
	}
	a.Invalidate(g.PPN(2, 1))
	var pages []int
	var owners []uint32
	a.LivePages(2, func(page int, logical uint32) {
		pages = append(pages, page)
		owners = append(owners, logical)
	})
	wantPages := []int{0, 2, 3}
	wantOwners := []uint32{10, 12, 13}
	for i := range wantPages {
		if pages[i] != wantPages[i] || owners[i] != wantOwners[i] {
			t.Fatalf("LivePages = %v/%v, want %v/%v", pages, owners, wantPages, wantOwners)
		}
	}
}

func TestWearTracking(t *testing.T) {
	a := mustNew(t, testGeometry())
	for i := 0; i < 5; i++ {
		a.Erase(3)
	}
	a.Erase(0)
	if got := a.TotalErases(); got != 6 {
		t.Errorf("TotalErases = %d", got)
	}
	min, max := a.WearSpread()
	if min != 0 || max != 5 {
		t.Errorf("WearSpread = %d..%d, want 0..5", min, max)
	}
}

func TestWearSlowdown(t *testing.T) {
	timing := PaperTiming()
	timing.WearSlowdown = 1.0 // 2x at spec cycles
	timing.SpecCycles = 10
	a, err := New(testGeometry(), timing)
	if err != nil {
		t.Fatal(err)
	}
	base := a.ProgramTime(0)
	if base != 4*sim.Microsecond {
		t.Fatalf("fresh program time = %v", base)
	}
	for i := 0; i < 10; i++ {
		a.Erase(0)
	}
	if got := a.ProgramTime(0); got != 8*sim.Microsecond {
		t.Errorf("program time at spec cycles = %v, want 8µs", got)
	}
	if got := a.EraseTime(0); got != 100*sim.Millisecond {
		t.Errorf("erase time at spec cycles = %v, want 100ms", got)
	}
	// Other segments unaffected.
	if got := a.ProgramTime(1); got != 4*sim.Microsecond {
		t.Errorf("unworn segment program time = %v", got)
	}
}

func TestNoWearSlowdownByDefault(t *testing.T) {
	a := mustNew(t, testGeometry())
	for i := 0; i < 100; i++ {
		a.Erase(0)
	}
	if got := a.ProgramTime(0); got != 4*sim.Microsecond {
		t.Errorf("program time changed without WearSlowdown: %v", got)
	}
}

func TestProgramsCounter(t *testing.T) {
	a := mustNew(t, testGeometry())
	g := a.Geometry()
	for i := 0; i < 3; i++ {
		a.Program(g.PPN(0, i), uint32(i), nil)
	}
	if got := a.Programs(); got != 3 {
		t.Errorf("Programs = %d", got)
	}
}

func TestOutOfRangePPNPanics(t *testing.T) {
	a := mustNew(t, testGeometry())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range PPN did not panic")
		}
	}()
	a.State(uint32(a.Geometry().Pages()))
}
