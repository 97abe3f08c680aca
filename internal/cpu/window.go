package cpu

// window holds every in-flight instruction in one slot per sequence
// number, at index seq & mask. Streams deliver consecutive sequence
// numbers from 0, and the pipeline processes instructions in that
// order, so four cursors split the live seqs [head, tail) into the
// pipeline's queues:
//
//	[head, disp)     the ROB: dispatched, not yet committed
//	[disp, fetched)  the fetch queue
//	[fetched, tail)  flushed instructions awaiting re-fetch
//
// Commit, dispatch and fetch advance head, disp and fetched; decoding
// a new instruction advances tail; a flush moves disp and fetched back
// to head. The ROB holds at most ROBSize instructions and fetch
// decodes only while the re-fetch range is empty and the fetch queue
// has room, so tail-head never exceeds ROBSize+FetchQueue and the
// slots, a power of two at least that many, never alias a live seq.
type window struct {
	slots []dynInst
	mask  uint64

	head, disp, fetched, tail uint64
}

func newWindow(live int) window {
	size := 1
	for size < live {
		size <<= 1
	}
	return window{slots: make([]dynInst, size), mask: uint64(size - 1)}
}

// at returns the slot of seq.
//
//samie:hotpath
func (w *window) at(seq uint64) *dynInst { return &w.slots[seq&w.mask] }

// inROB reports whether seq is in the ROB, [head, disp). One unsigned
// comparison covers both sides: a seq below head wraps to a huge
// offset, as does noProducer.
func (w *window) inROB(seq uint64) bool { return seq-w.head < w.disp-w.head }
