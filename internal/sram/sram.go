// Package sram models eNVy's battery-backed SRAM write buffer (§3.2).
//
// The buffer is a FIFO of page frames: copy-on-write inserts pages at
// the head, the controller flushes from the tail, and writes to a page
// already buffered update its frame in place with no additional
// copy-on-write (the coalescing that keeps TPC-A's flush rate near one
// page per transaction). The paper chose plain FIFO over smarter
// replacement because the buffer is managed in hardware (§3.2); this
// model preserves that: nothing reorders the queue.
//
// Because the SRAM copy is the only valid copy of a buffered page, the
// real hardware battery-backs this memory; here that simply means the
// buffer is part of the device's persistent state.
package sram

import "fmt"

// NoFrame is the list terminator for the intrusive FIFO links.
const noFrame = -1

// Frame is one buffered page. The controller owns all fields except
// the links.
type Frame struct {
	Logical uint32 // logical page number held in this frame
	Home    int    // segment (or partition) the page was copied from (§4.3)
	Data    []byte // page payload; nil when the buffer is dataless

	// Flushing marks a frame whose program to Flash is in progress.
	// Flushing frames are skipped by Oldest so the controller does not
	// start a second flush of the same page.
	Flushing bool

	// Dirtied marks a Flushing frame that was re-written by the host
	// while its program was in flight; the freshly programmed Flash
	// copy must be invalidated on completion and the frame re-queued.
	Dirtied bool

	// dirtyLo/dirtyHi bound the bytes written since the frame's dirty
	// range was last cleared, as a half-open [lo, hi) span. The
	// differential flush policy programs only this span (as a diff
	// record against the kept Flash base) instead of the whole page.
	// An empty span (lo == hi) means no tracked writes.
	dirtyLo, dirtyHi int

	idx        int
	prev, next int
}

// MarkDirty extends the frame's dirty span to cover [lo, hi).
func (f *Frame) MarkDirty(lo, hi int) {
	if lo >= hi {
		return
	}
	if f.dirtyLo == f.dirtyHi { // empty span
		f.dirtyLo, f.dirtyHi = lo, hi
		return
	}
	if lo < f.dirtyLo {
		f.dirtyLo = lo
	}
	if hi > f.dirtyHi {
		f.dirtyHi = hi
	}
}

// DirtySpan returns the tracked dirty span as a half-open [lo, hi)
// byte range; lo == hi means no writes have been tracked.
func (f *Frame) DirtySpan() (lo, hi int) { return f.dirtyLo, f.dirtyHi }

// ClearDirty empties the tracked dirty span (after the span has been
// captured into a programmed diff record).
func (f *Frame) ClearDirty() { f.dirtyLo, f.dirtyHi = 0, 0 }

// Buffer is the FIFO write buffer. It is not safe for concurrent use.
type Buffer struct {
	frames   []Frame
	index    map[uint32]int // logical page -> frame index
	freeList []int
	head     int // most recently inserted
	tail     int // least recently inserted
	pageSize int
	dataless bool
}

// NewBuffer returns an empty buffer with the given number of page
// frames. If dataless is true, frames carry no payload storage.
func NewBuffer(frames, pageSize int, dataless bool) *Buffer {
	if frames <= 0 {
		panic(fmt.Sprintf("sram: buffer needs at least 1 frame, got %d", frames))
	}
	if pageSize <= 0 {
		panic(fmt.Sprintf("sram: page size must be positive, got %d", pageSize))
	}
	b := &Buffer{
		frames:   make([]Frame, frames),
		index:    make(map[uint32]int, frames),
		freeList: make([]int, 0, frames),
		head:     noFrame,
		tail:     noFrame,
		pageSize: pageSize,
		dataless: dataless,
	}
	for i := frames - 1; i >= 0; i-- {
		b.frames[i].idx = i
		b.freeList = append(b.freeList, i)
	}
	return b
}

// Cap returns the total number of frames.
func (b *Buffer) Cap() int { return len(b.frames) }

// Len returns the number of occupied frames.
func (b *Buffer) Len() int { return len(b.index) }

// Full reports whether every frame is occupied.
func (b *Buffer) Full() bool { return len(b.index) == len(b.frames) }

// PageSize returns the payload size of each frame.
func (b *Buffer) PageSize() int { return b.pageSize }

// Lookup returns the frame holding a logical page, or nil.
func (b *Buffer) Lookup(logical uint32) *Frame {
	i, ok := b.index[logical]
	if !ok {
		return nil
	}
	return &b.frames[i]
}

// Insert places a logical page into a free frame at the head of the
// FIFO and returns the frame. The payload, if any, is copied in. It
// panics if the buffer is full or the page is already buffered — both
// indicate controller bugs.
func (b *Buffer) Insert(logical uint32, home int, payload []byte) *Frame {
	if _, dup := b.index[logical]; dup {
		panic(fmt.Sprintf("sram: logical page %d already buffered", logical))
	}
	if len(b.freeList) == 0 {
		panic("sram: inserting into a full buffer")
	}
	i := b.freeList[len(b.freeList)-1]
	b.freeList = b.freeList[:len(b.freeList)-1]
	f := &b.frames[i]
	f.Logical = logical
	f.Home = home
	f.Flushing = false
	f.Dirtied = false
	f.dirtyLo, f.dirtyHi = 0, 0
	if !b.dataless {
		if f.Data == nil {
			f.Data = make([]byte, b.pageSize)
		}
		n := copy(f.Data, payload)
		for j := n; j < len(f.Data); j++ {
			f.Data[j] = 0
		}
	}
	b.linkHead(i)
	b.index[logical] = i
	return f
}

// Remove frees a frame, unlinking it from the FIFO.
func (b *Buffer) Remove(f *Frame) {
	i := f.idx
	if got, ok := b.index[f.Logical]; !ok || got != i {
		panic(fmt.Sprintf("sram: removing frame for page %d that is not buffered", f.Logical))
	}
	b.unlink(i)
	delete(b.index, f.Logical)
	b.freeList = append(b.freeList, i)
}

// Requeue moves a frame back to the head of the FIFO and clears its
// flush flags, used when a flush completed but the host re-wrote the
// page mid-program.
func (b *Buffer) Requeue(f *Frame) {
	b.unlink(f.idx)
	b.linkHead(f.idx)
	f.Flushing = false
	f.Dirtied = false
}

// Oldest returns the frame at the tail of the FIFO that is not already
// being flushed, or nil if every buffered page is mid-flush (or the
// buffer is empty). This is the flush candidate per §3.2: "pages are
// flushed from the tail".
func (b *Buffer) Oldest() *Frame { return b.FindOldest(notFlushing) }

func notFlushing(f *Frame) bool { return !f.Flushing }

// FindOldest returns the frame nearest the tail of the FIFO (the
// oldest) for which match reports true, or nil if none does. The scan
// stops at the first match.
func (b *Buffer) FindOldest(match func(*Frame) bool) *Frame {
	for i := b.tail; i != noFrame; i = b.frames[i].prev {
		if match(&b.frames[i]) {
			return &b.frames[i]
		}
	}
	return nil
}

// Frames iterates the occupied frames from tail (oldest) to head
// (newest). The callback must not insert or remove frames.
func (b *Buffer) Frames(fn func(*Frame)) {
	for i := b.tail; i != noFrame; {
		prev := b.frames[i].prev
		fn(&b.frames[i])
		i = prev
	}
}

func (b *Buffer) linkHead(i int) {
	f := &b.frames[i]
	f.prev = noFrame
	f.next = b.head
	if b.head != noFrame {
		b.frames[b.head].prev = i
	}
	b.head = i
	if b.tail == noFrame {
		b.tail = i
	}
}

func (b *Buffer) unlink(i int) {
	f := &b.frames[i]
	if f.prev != noFrame {
		b.frames[f.prev].next = f.next
	} else {
		b.head = f.next
	}
	if f.next != noFrame {
		b.frames[f.next].prev = f.prev
	} else {
		b.tail = f.prev
	}
	f.prev, f.next = noFrame, noFrame
}
