package lsq

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refOp and refTracker are a naive O(window) reference for Tracker: an
// age-ordered slice scanned in full for every query.
type refOp struct {
	seq           uint64
	isLoad        bool
	addr          uint64
	size          uint8
	known, placed bool
}

// live reports whether op takes part in forwarding and the compare
// counts: placed with a known address.
func (op refOp) live() bool { return op.placed && op.known }

// floor is the lowest seq the next Add may take: one past the last
// seq added, or after a Clear the oldest seq it dropped.
type refTracker struct {
	ops   []refOp
	floor uint64
}

func (r *refTracker) index(seq uint64) int {
	for i := range r.ops {
		if r.ops[i].seq == seq {
			return i
		}
	}
	return -1
}

func (r *refTracker) forwardingSource(seq uint64) (uint64, bool) {
	i := r.index(seq)
	if i < 0 || !r.ops[i].isLoad || !r.ops[i].known {
		return 0, false
	}
	ld := r.ops[i]
	for j := i - 1; j >= 0; j-- {
		st := r.ops[j]
		if !st.isLoad && st.live() &&
			st.addr < ld.addr+uint64(ld.size) && ld.addr < st.addr+uint64(st.size) {
			return st.seq, true
		}
	}
	return 0, false
}

func (r *refTracker) countOlderKnownStores(seq uint64) int {
	i := r.index(seq)
	n := 0
	for j := 0; j < i; j++ {
		if !r.ops[j].isLoad && r.ops[j].live() {
			n++
		}
	}
	return n
}

func (r *refTracker) countYoungerKnownLoads(seq uint64) int {
	i := r.index(seq)
	if i < 0 {
		return 0
	}
	n := 0
	for j := i + 1; j < len(r.ops); j++ {
		if r.ops[j].isLoad && r.ops[j].live() {
			n++
		}
	}
	return n
}

// trackerDiff applies every operation to a Tracker and the reference
// and compares all query results after each one.
type trackerDiff struct {
	t    *testing.T
	tr   *Tracker
	ref  refTracker
	step string
}

// newTrackerDiff compares tr, which must be empty, with the
// reference.
func newTrackerDiff(t *testing.T, tr *Tracker) *trackerDiff {
	return &trackerDiff{t: t, tr: tr}
}

func (d *trackerDiff) add(seq uint64, isLoad bool) {
	d.step = fmt.Sprintf("Add(%d, load=%v)", seq, isLoad)
	d.tr.Add(seq, isLoad)
	d.ref.ops = append(d.ref.ops, refOp{seq: seq, isLoad: isLoad})
	d.ref.floor = seq + 1
	d.check()
}

// addPanics requires Add(seq) of a seq below the reference's floor to
// panic and to leave the tracker as it was.
func (d *trackerDiff) addPanics(seq uint64) {
	d.step = fmt.Sprintf("Add(%d) (below %d)", seq, d.ref.floor)
	if seq >= d.ref.floor {
		d.t.Fatalf("%s: the seq is not below the floor", d.step)
	}
	func() {
		defer func() {
			if recover() == nil {
				d.t.Fatalf("%s did not panic", d.step)
			}
		}()
		d.tr.Add(seq, true)
	}()
	d.check()
}

func (d *trackerDiff) setAddress(seq, addr uint64, size uint8) {
	d.step = fmt.Sprintf("SetAddress(%d, %#x, %d)", seq, addr, size)
	d.tr.SetAddress(d.tr.Get(seq), addr, size)
	i := d.ref.index(seq)
	d.ref.ops[i].addr, d.ref.ops[i].size, d.ref.ops[i].known = addr, size, true
	d.check()
}

func (d *trackerDiff) setPlaced(seq uint64) {
	d.step = fmt.Sprintf("SetPlaced(%d)", seq)
	d.tr.SetPlaced(d.tr.Get(seq))
	i := d.ref.index(seq)
	d.ref.ops[i].placed = true
	d.check()
}

// removeOldest retires the oldest op, as the CPU's in-order commit
// does.
func (d *trackerDiff) removeOldest() {
	seq := d.ref.ops[0].seq
	d.step = fmt.Sprintf("Remove(%d)", seq)
	if got := d.tr.Remove(seq); got.Seq != seq {
		d.t.Fatalf("%s returned op %d", d.step, got.Seq)
	}
	d.ref.ops = d.ref.ops[1:]
	d.check()
}

// removePanics requires Remove(seq) of an op that is not the oldest to
// panic and to leave the tracker as it was.
func (d *trackerDiff) removePanics(seq uint64) {
	d.step = fmt.Sprintf("Remove(%d) (not the oldest)", seq)
	func() {
		defer func() {
			if recover() == nil {
				d.t.Fatalf("%s did not panic", d.step)
			}
		}()
		d.tr.Remove(seq)
	}()
	d.check()
}

func (d *trackerDiff) clear() {
	d.step = "Clear()"
	d.tr.Clear()
	if len(d.ref.ops) > 0 {
		d.ref.floor = d.ref.ops[0].seq
	}
	d.ref.ops = d.ref.ops[:0]
	d.check()
}

// fwd returns the tracker's forwarding answer for seq after checking
// it against the reference.
func (d *trackerDiff) fwd(seq uint64) (uint64, bool) {
	src, ok := d.tr.ForwardingSource(seq)
	wsrc, wok := d.ref.forwardingSource(seq)
	if src != wsrc || ok != wok {
		d.t.Fatalf("after %s: ForwardingSource(%d) = %d,%v, reference %d,%v", d.step, seq, src, ok, wsrc, wok)
	}
	return src, ok
}

func (d *trackerDiff) checkSeq(seq uint64) {
	i := d.ref.index(seq)
	op := d.tr.Get(seq)
	if (op != nil) != (i >= 0) {
		d.t.Fatalf("after %s: Get(%d) = %v, reference tracks it: %v", d.step, seq, op, i >= 0)
	}
	if op != nil {
		w := d.ref.ops[i]
		if op.Seq != seq || op.IsLoad != w.isLoad || op.AddrKnown != w.known ||
			op.Placed != w.placed ||
			(w.known && (op.Addr != w.addr || op.Size != w.size)) {
			d.t.Fatalf("after %s: Get(%d) = %+v, reference %+v", d.step, seq, *op, w)
		}
	}
	d.fwd(seq)
	if got, want := d.tr.CountOlderKnownStores(seq), d.ref.countOlderKnownStores(seq); got != want {
		d.t.Fatalf("after %s: CountOlderKnownStores(%d) = %d, reference %d", d.step, seq, got, want)
	}
	if got, want := d.tr.CountYoungerKnownLoads(seq), d.ref.countYoungerKnownLoads(seq); got != want {
		d.t.Fatalf("after %s: CountYoungerKnownLoads(%d) = %d, reference %d", d.step, seq, got, want)
	}
}

func (d *trackerDiff) check() {
	if d.tr.Len() != len(d.ref.ops) {
		d.t.Fatalf("after %s: Len = %d, reference %d", d.step, d.tr.Len(), len(d.ref.ops))
	}
	for _, op := range d.ref.ops {
		d.checkSeq(op.seq)
		d.checkSeq(op.seq + 1) // usually untracked: a gap or the next seq
	}
	d.checkIndex()
}

// checkIndex requires the forwarding index to hold exactly the bits
// the reference implies: one per live store in the store window, in
// the bucket of every word the store touches. Stale bits would not
// change an answer (candidates are confirmed), only the probe cost.
func (d *trackerDiff) checkIndex() {
	tr := d.tr
	want := make([]uint64, len(tr.fwdIdx))
	for _, op := range d.ref.ops {
		if op.isLoad || !op.live() {
			continue
		}
		slot := tr.Get(op.seq).ord & tr.storeMask
		first, last := wordSpan(op.addr, op.addr+uint64(op.size))
		for w := first; w <= last; w++ {
			want[fwdBucket(w)*tr.fwdWords+int(slot>>6)] |= 1 << (slot & 63)
		}
	}
	if !slices.Equal(tr.fwdIdx, want) {
		d.t.Fatalf("after %s: forwarding index\n%x\nwant\n%x", d.step, tr.fwdIdx, want)
	}
}

// TestForwardingMemoInvalidation checks that a load which probed with
// no forwarding source picks up an older store whose address and
// placement arrive later, and stops forwarding from it once it retires.
// Every step is also compared against the naive reference.
func TestForwardingMemoInvalidation(t *testing.T) {
	d := newTrackerDiff(t, NewTracker())
	d.add(1, false)
	d.add(2, true)
	d.setAddress(2, 0x100, 8)
	d.setPlaced(2)
	if _, ok := d.fwd(2); ok {
		t.Fatal("no-store window forwarded")
	}
	// The older store's address arrives after the load probed.
	d.setAddress(1, 0x100, 8)
	if _, ok := d.fwd(2); ok {
		t.Fatal("unplaced store forwarded")
	}
	d.setPlaced(1)
	if src, ok := d.fwd(2); !ok || src != 1 {
		t.Fatalf("missed late candidate: %d %v", src, ok)
	}
	d.removeOldest()
	if _, ok := d.fwd(2); ok {
		t.Fatal("retired store still forwarded")
	}
}

// TestForwardingMemoAfterWindowOverflow probes a load, then pushes far
// more overlapping stores through than the initial store ring holds, so
// the ring grows while the load waits. All of them are younger than the
// load, so none may forward to it.
func TestForwardingMemoAfterWindowOverflow(t *testing.T) {
	d := newTrackerDiff(t, NewTracker())
	d.add(0, true)
	d.setAddress(0, 0x10, 8)
	d.setPlaced(0)
	d.fwd(0)
	for i := uint64(1); i <= 192; i++ {
		d.add(i, false)
		d.setPlaced(i)
		d.setAddress(i, 0x10, 8)
	}
	if _, ok := d.fwd(0); ok {
		t.Fatal("younger stores forwarded to an older load")
	}
}

// TestTrackerDifferential drives the tracker and a naive O(window)
// reference through the same operation streams — scripted forwarding
// cases, then seeded random streams — and compares every query after
// every operation.
func TestTrackerDifferential(t *testing.T) {
	t.Run("non-front remove panics", func(t *testing.T) {
		d := newTrackerDiff(t, NewTracker())
		d.removePanics(1) // empty tracker
		for i := uint64(1); i <= 5; i++ {
			d.add(i, i == 5)
			d.setAddress(i, 0x40, 4)
			d.setPlaced(i)
		}
		d.removePanics(4) // the youngest older store
		d.removePanics(9) // never added
		if src, ok := d.fwd(5); !ok || src != 4 {
			t.Fatalf("after the refused removals: %d %v, want 4", src, ok)
		}
		d.removeOldest()
		d.removePanics(3)
		if src, ok := d.fwd(5); !ok || src != 4 {
			t.Fatalf("after removing store 1: %d %v, want 4", src, ok)
		}
	})
	t.Run("rewinding add panics", func(t *testing.T) {
		d := newTrackerDiff(t, NewTracker())
		d.add(1, true)
		d.add(2, false)
		d.removeOldest()
		d.removeOldest()
		d.addPanics(1) // emptied by Remove: op 2's slot still holds it
		d.add(3, true)
		d.add(6, false)
		d.clear()
		d.addPanics(2) // below the oldest op the Clear dropped
		d.add(3, false)
		d.add(5, true) // 6's slot was marked by the Clear
		d.addPanics(4)
	})
	for seed := int64(1); seed <= 8; seed++ {
		stream := func(t *testing.T) {
			if n := randomTrackerStream(newTrackerDiff(t, NewTracker()), rand.New(rand.NewSource(seed)), 3000); n < 64 {
				t.Fatalf("window peaked at %d ops; the stream must outgrow the initial rings", n)
			}
		}
		t.Run(fmt.Sprintf("random seed %d", seed), stream)
		// Every tracker keeps the compare counts, so the former
		// count-free variant's name runs the same stream.
		t.Run(fmt.Sprintf("random seed %d without CAM counts", seed), stream)
	}
}

// randomTrackerStream applies steps random operations. Sequence
// numbers increase with gaps, some of them a whole op-ring length so
// the ring grows while placed ops are live; addresses come from a
// small pool so accesses overlap, and the window drifts up to 100 ops
// so both rings grow and wrap. A Clear rewinds to the oldest dropped
// seq, as a pipeline flush re-dispatches the same seqs. It returns the
// largest window reached.
func randomTrackerStream(d *trackerDiff, rng *rand.Rand, steps int) int {
	next := uint64(rng.Intn(4))
	pick := func() uint64 { return d.ref.ops[rng.Intn(len(d.ref.ops))].seq }
	maxLen := 0
	for i := 0; i < steps; i++ {
		n := len(d.ref.ops)
		maxLen = max(maxLen, n)
		switch r := rng.Intn(1000); {
		case n == 0 || (r < 350 && n < 100):
			d.add(next, rng.Intn(2) == 0)
			next += 1 + uint64(rng.Intn(3))
			if rng.Intn(50) == 0 && len(d.tr.ops) < 1024 {
				next += uint64(len(d.tr.ops))
			}
		case r < 550:
			d.setAddress(pick(), 0x1000+uint64(rng.Intn(12))*4, []uint8{1, 2, 4, 8}[rng.Intn(4)])
		case r < 740:
			d.setPlaced(pick())
		case r < 998:
			d.removeOldest()
		default:
			next = d.ref.ops[0].seq
			d.clear()
		}
	}
	return maxLen
}

// FuzzTrackerDifferential decodes its input into tracker operations
// and checks every query against the reference after each one, as
// TestTrackerDifferential does. Each operation takes a selector byte
// and an argument byte: Adds with seq gaps (some a whole op-ring
// length), SetAddress and SetPlaced of any tracked op, Remove of the
// oldest op, a refused Remove of a younger or an untracked seq, a
// refused Add below an earlier seq, and a Clear followed by a rewind
// to the oldest dropped seq.
func FuzzTrackerDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0x18, 0, 3, 0, 4, 0, 0x43, 1, 4, 1, 0xf0, 0, 0x88, 2, 0x83, 2, 4, 2, 6, 2, 5, 0, 7, 0, 0, 0, 6, 1})
	f.Add([]byte{0, 0, 0, 0, 5, 0, 5, 0, 6, 3, 0, 0, 0x10, 0, 7, 0, 6, 7, 0, 0})
	rng := rand.New(rand.NewSource(1))
	for range 4 {
		b := make([]byte, 512)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 512)]
		d := newTrackerDiff(t, NewTracker())
		next := uint64(0) // the seq the next Add gets
		for i := 0; i+1 < len(data); i += 2 {
			sel, arg := data[i], uint64(data[i+1])
			n := len(d.ref.ops)
			pick := func() uint64 { return d.ref.ops[arg%uint64(n)].seq }
			switch op := sel % 8; {
			case op == 6 && arg%4 == 3 && d.ref.floor > 0:
				d.addPanics(d.ref.floor - 1 - (arg>>2)%d.ref.floor)
			case op == 6:
				seq := next + arg // untracked: next is past every tracked seq
				if n >= 2 && arg%2 == 0 {
					seq = d.ref.ops[1+int(arg/2)%(n-1)].seq
				}
				d.removePanics(seq)
			case n == 0 || op <= 2 && n < 64:
				d.add(next, sel&8 != 0)
				next += 1 + uint64(sel>>4)
				if sel>>4 == 15 && len(d.tr.ops) < 1024 {
					next += uint64(len(d.tr.ops))
				}
			case op == 3:
				d.setAddress(pick(), 0x1000+arg%16*4, []uint8{1, 2, 4, 8}[sel>>6])
			case op == 4:
				d.setPlaced(pick())
			case op == 7:
				next = d.ref.ops[0].seq
				d.clear()
			default: // op 5, or an Add past a full window
				d.removeOldest()
			}
		}
	})
}
