// Package mem implements the byte-addressable, paged virtual memory that the
// MIR virtual machine (package vm) executes against. It reproduces the parts
// of a process address space that matter to the paper's threat model (§2.1):
// page-granularity protections (so read-only code and guard pages behave
// correctly), distinct segments (code, data, BSS, heap, stacks, and the
// hidden "safe" regions used by safe-stack and CPI designs), and a heap
// allocator whose bugs — overflow, use-after-free, double free — can actually
// corrupt neighbouring memory.
package mem

import "fmt"

// PageSize is the granularity of protection, matching a 4 KiB x86-64 page.
const PageSize = 4096

// Perm is a page-permission bit set.
type Perm uint8

// Permission bits.
const (
	Read  Perm = 1 << iota // page may be read
	Write                  // page may be written
	Exec                   // page may be executed
	// Append marks an appendable memory region (AMR, §2.3.2): the MMU
	// rejects ordinary unprivileged writes; only the AppendWrite
	// instruction may store to these pages.
	Append
)

func (p Perm) String() string {
	b := []byte("----")
	if p&Read != 0 {
		b[0] = 'r'
	}
	if p&Write != 0 {
		b[1] = 'w'
	}
	if p&Exec != 0 {
		b[2] = 'x'
	}
	if p&Append != 0 {
		b[3] = 'a'
	}
	return string(b)
}

// FaultKind classifies a memory fault.
type FaultKind int

// Fault kinds.
const (
	FaultUnmapped FaultKind = iota // no page mapped at the address
	FaultPerm                      // page mapped without the required permission
)

func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultPerm:
		return "protection"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault is the error returned for an invalid access. It mirrors a hardware
// page fault: the VM turns unhandled faults into a crash of the monitored
// program (a SIGSEGV analogue).
type Fault struct {
	Addr uint64
	Kind FaultKind
	Need Perm
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: %s fault at %#x (need %s)", f.Kind, f.Addr, f.Need)
}

// page is one mapped page: permissions plus backing bytes.
type page struct {
	perm Perm
	data [PageSize]byte
}

// Memory is a sparse paged address space.
type Memory struct {
	pages map[uint64]*page
}

// New creates an empty address space.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// Map maps [addr, addr+size) with the given permissions. Both bounds are
// rounded outward to page boundaries. Mapping over an existing page fails:
// segments are laid out disjointly by the loader.
func (m *Memory) Map(addr, size uint64, perm Perm) error {
	if size == 0 {
		return fmt.Errorf("mem: zero-size mapping at %#x", addr)
	}
	start := addr &^ (PageSize - 1)
	end := (addr + size + PageSize - 1) &^ (PageSize - 1)
	for p := start; p < end; p += PageSize {
		if _, ok := m.pages[p]; ok {
			return fmt.Errorf("mem: page %#x already mapped", p)
		}
	}
	for p := start; p < end; p += PageSize {
		m.pages[p] = &page{perm: perm}
	}
	return nil
}

// check verifies that every byte of [addr, addr+n) is mapped with need.
// An Append page rejects ordinary writes even when Write is also set,
// enforcing the AMR property of §2.3.2.
func (m *Memory) check(addr, n uint64, need Perm) error {
	if n == 0 {
		return nil
	}
	end := addr + n
	if end < addr {
		return &Fault{Addr: addr, Kind: FaultUnmapped, Need: need}
	}
	for p := addr &^ (PageSize - 1); p < end; p += PageSize {
		pg, ok := m.pages[p]
		if !ok {
			return &Fault{Addr: max64(p, addr), Kind: FaultUnmapped, Need: need}
		}
		if pg.perm&need != need {
			return &Fault{Addr: max64(p, addr), Kind: FaultPerm, Need: need}
		}
		if need&Write != 0 && pg.perm&Append != 0 {
			return &Fault{Addr: max64(p, addr), Kind: FaultPerm, Need: need}
		}
	}
	return nil
}

// Read copies len(dst) bytes from addr into dst.
func (m *Memory) Read(addr uint64, dst []byte) error {
	if err := m.check(addr, uint64(len(dst)), Read); err != nil {
		return err
	}
	m.copyOut(addr, dst)
	return nil
}

// Write copies src into memory at addr, honouring page protections.
func (m *Memory) Write(addr uint64, src []byte) error {
	if err := m.check(addr, uint64(len(src)), Write); err != nil {
		return err
	}
	m.copyIn(addr, src)
	return nil
}

// AppendWrite stores src at addr inside an appendable memory region,
// bypassing the ordinary-write rejection. Only the AppendWrite instruction
// (package uarch) may use this path.
func (m *Memory) AppendWrite(addr uint64, src []byte) error {
	if err := m.check(addr, uint64(len(src)), Append); err != nil {
		return err
	}
	m.copyIn(addr, src)
	return nil
}

// WriteUnchecked stores src at addr ignoring Write permission (but the pages
// must be mapped). It models kernel-privileged stores (e.g. the loader
// populating read-only sections) and must never be reachable from guest code.
func (m *Memory) WriteUnchecked(addr uint64, src []byte) error {
	if err := m.check(addr, uint64(len(src)), 0); err != nil {
		return err
	}
	m.copyIn(addr, src)
	return nil
}

func (m *Memory) copyOut(addr uint64, dst []byte) {
	for len(dst) > 0 {
		pg := m.pages[addr&^(PageSize-1)]
		off := addr & (PageSize - 1)
		n := copy(dst, pg.data[off:])
		dst = dst[n:]
		addr += uint64(n)
	}
}

func (m *Memory) copyIn(addr uint64, src []byte) {
	for len(src) > 0 {
		pg := m.pages[addr&^(PageSize-1)]
		off := addr & (PageSize - 1)
		n := copy(pg.data[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// ReadWord loads a 64-bit little-endian word.
func (m *Memory) ReadWord(addr uint64) (uint64, error) {
	var b [8]byte
	if err := m.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return leU64(b[:]), nil
}

// WriteWord stores a 64-bit little-endian word.
func (m *Memory) WriteWord(addr, v uint64) error {
	var b [8]byte
	putLeU64(b[:], v)
	return m.Write(addr, b[:])
}

// LoadByte loads one byte.
func (m *Memory) LoadByte(addr uint64) (byte, error) {
	var b [1]byte
	if err := m.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

// StoreByte stores one byte.
func (m *Memory) StoreByte(addr uint64, v byte) error {
	return m.Write(addr, []byte{v})
}

// Memmove copies n bytes from src to dst, handling overlap like memmove(3).
func (m *Memory) Memmove(dst, src, n uint64) error {
	if n == 0 {
		return nil
	}
	buf := make([]byte, n)
	if err := m.Read(src, buf); err != nil {
		return err
	}
	return m.Write(dst, buf)
}

// Memset fills [addr, addr+n) with v.
func (m *Memory) Memset(addr uint64, v byte, n uint64) error {
	if n == 0 {
		return nil
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = v
	}
	return m.Write(addr, buf)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
