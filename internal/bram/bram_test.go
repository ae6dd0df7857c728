package bram

import (
	"testing"
	"testing/quick"

	"repro/internal/silicon"
)

func TestBlockReadWrite(t *testing.T) {
	b := NewBlock(0, silicon.Site{X: 3, Y: 7})
	b.Write(0, 0xBEEF)
	b.Write(1023, 0x1234)
	if b.ReadRaw(0) != 0xBEEF || b.ReadRaw(1023) != 0x1234 {
		t.Fatal("read-back mismatch")
	}
	if b.ReadRaw(5) != 0 {
		t.Fatal("unwritten row not zero")
	}
	if b.Site() != (silicon.Site{X: 3, Y: 7}) || b.Index() != 0 {
		t.Fatal("identity accessors wrong")
	}
}

func TestFill(t *testing.T) {
	b := NewBlock(0, silicon.Site{})
	b.Fill(0xFFFF)
	for r := 0; r < Rows; r++ {
		if b.ReadRaw(r) != 0xFFFF {
			t.Fatalf("row %d = %#x", r, b.ReadRaw(r))
		}
	}
}

func TestFillFunc(t *testing.T) {
	b := NewBlock(0, silicon.Site{})
	b.FillFunc(func(row int) uint16 { return uint16(row) })
	if b.ReadRaw(0) != 0 || b.ReadRaw(513) != 513 {
		t.Fatal("FillFunc pattern wrong")
	}
}

func TestParity(t *testing.T) {
	b := NewBlock(0, silicon.Site{})
	b.Write(4, 0x0101) // one bit per byte -> parity 0b11
	if b.ReadParity(4) != 0b11 {
		t.Fatalf("parity = %#b", b.ReadParity(4))
	}
	b.Write(5, 0x0300) // two bits in high byte -> parity 0b00
	if b.ReadParity(5) != 0 {
		t.Fatalf("parity = %#b", b.ReadParity(5))
	}
}

func TestQuickParityMatchesPopcount(t *testing.T) {
	f := func(w uint16) bool {
		b := NewBlock(0, silicon.Site{})
		b.Write(0, w)
		ones := 0
		for i := 0; i < 8; i++ {
			ones += int(w>>i) & 1
		}
		lo := uint8(ones & 1)
		ones = 0
		for i := 8; i < 16; i++ {
			ones += int(w>>i) & 1
		}
		hi := uint8(ones & 1)
		return b.ReadParity(0) == lo|hi<<1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPool(t *testing.T) {
	sites := []silicon.Site{{X: 0, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 0}}
	p := NewPool(sites)
	if p.Len() != 3 {
		t.Fatalf("pool len = %d", p.Len())
	}
	if p.Block(1).Site() != sites[1] {
		t.Fatal("block site mismatch")
	}
	if p.At(silicon.Site{X: 1, Y: 0}).Index() != 2 {
		t.Fatal("site lookup wrong")
	}
	if p.At(silicon.Site{X: 9, Y: 9}) != nil {
		t.Fatal("missing site should be nil")
	}
	p.FillAll(0xAAAA)
	if p.Block(2).ReadRaw(100) != 0xAAAA {
		t.Fatal("FillAll missed a block")
	}
	if p.TotalBits() != 3*16384 {
		t.Fatalf("TotalBits = %d", p.TotalBits())
	}
	if got := p.TotalMbits(); got != 3.0*16384/1048576 {
		t.Fatalf("TotalMbits = %v", got)
	}
}

func TestBlocksFor(t *testing.T) {
	cases := []struct{ words, want int }{
		{0, 0}, {1, 1}, {1024, 1}, {1025, 2}, {1492224, 1458},
	}
	for _, c := range cases {
		if got := BlocksFor(c.words); got != c.want {
			t.Fatalf("BlocksFor(%d) = %d, want %d", c.words, got, c.want)
		}
	}
}

func TestCascade(t *testing.T) {
	sites := []silicon.Site{{X: 0, Y: 0}, {X: 0, Y: 1}}
	p := NewPool(sites)
	c, err := NewCascade(1500, []*Block{p.Block(0), p.Block(1)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1500 || c.NumBlocks() != 2 {
		t.Fatal("cascade shape wrong")
	}
	// Address 1024 maps to the second block, row 0.
	if err := c.Write(1024, 0xCAFE); err != nil {
		t.Fatal(err)
	}
	if p.Block(1).ReadRaw(0) != 0xCAFE {
		t.Fatal("address mapping wrong")
	}
	got, err := c.ReadRaw(1024)
	if err != nil || got != 0xCAFE {
		t.Fatalf("cascade read = %#x, %v", got, err)
	}
	if _, err := c.ReadRaw(1500); err == nil {
		t.Fatal("out-of-range read should fail")
	}
	if err := c.Write(-1, 0); err == nil {
		t.Fatal("negative write should fail")
	}
}

func TestCascadeCapacity(t *testing.T) {
	p := NewPool([]silicon.Site{{X: 0, Y: 0}})
	if _, err := NewCascade(1025, []*Block{p.Block(0)}); err == nil {
		t.Fatal("oversized cascade should fail")
	}
	if _, err := NewCascade(-1, nil); err == nil {
		t.Fatal("negative cascade should fail")
	}
	if _, err := NewCascade(0, nil); err != nil {
		t.Fatal("empty cascade should be fine")
	}
}

func TestCountFaults(t *testing.T) {
	b := NewBlock(0, silicon.Site{})
	b.Write(3, 0b0000_0000_0000_1010)
	faults := []silicon.Fault{
		{Row: 3, Col: 1},               // stored 1 → observable 1→0
		{Row: 3, Col: 0},               // stored 0 → invisible 1→0
		{Row: 3, Col: 2, Flip01: true}, // stored 0 → observable 0→1
		{Row: 3, Col: 3, Flip01: true}, // stored 1 → invisible 0→1
		{Row: 7, Col: 5},               // other row, stored 0 → invisible
	}
	total, f10, f01 := b.CountFaults(faults)
	if total != 2 || f10 != 1 || f01 != 1 {
		t.Fatalf("CountFaults = (%d, %d, %d), want (2, 1, 1)", total, f10, f01)
	}
}

func TestQuickCountFaultsEquivalentToOverlayDiff(t *testing.T) {
	// Property: the count-only path must agree with applying the overlay to
	// a snapshot and diffing it row by row, for any contents and fault list.
	f := func(words []uint16, rows []uint8, cols []uint8, flips []bool) bool {
		b := NewBlock(0, silicon.Site{})
		for r, w := range words {
			if r >= Rows {
				break
			}
			b.Write(r, w)
		}
		n := min(len(rows), len(cols), len(flips))
		seen := map[[2]int]bool{}
		var faults []silicon.Fault
		for i := 0; i < n; i++ {
			fa := silicon.Fault{Row: uint16(rows[i] % 8), Col: cols[i] % 16, Flip01: flips[i]}
			k := [2]int{int(fa.Row), int(fa.Col)}
			if seen[k] {
				continue // one weak mechanism per bitcell
			}
			seen[k] = true
			faults = append(faults, fa)
		}
		total, f10, f01 := b.CountFaults(faults)
		want10, want01 := 0, 0
		for row := 0; row < Rows; row++ {
			stored := b.ReadRaw(row)
			got := stored
			for _, f := range faults {
				if int(f.Row) != row {
					continue
				}
				if f.Flip01 {
					got |= 1 << f.Col
				} else {
					got &^= 1 << f.Col
				}
			}
			for bit := 0; bit < 16; bit++ {
				s, g := stored>>bit&1, got>>bit&1
				if s == 1 && g == 0 {
					want10++
				}
				if s == 0 && g == 1 {
					want01++
				}
			}
		}
		return total == want10+want01 && f10 == want10 && f01 == want01
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
