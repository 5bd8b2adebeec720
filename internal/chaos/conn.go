package chaos

import (
	"net"
	"sync/atomic"
	"time"

	"herqules/internal/ipc"
)

// faultConn applies connection-level faults to a wrapped net.Conn: write
// stalls (a frozen path) and mid-frame transport death (half a frame on the
// wire, then close). Both are decided per write call — the transport write
// sequence is a timing artifact, like RecvBatch call counts — so they are
// excluded from the schedule hash.
//
// The wrapper faults only the write side: a dropped write is observable at
// the far end as a truncated frame (the exact failure the fd-framing
// partial-frame carry and the networked resume protocol both exist to
// handle), whereas a read-side drop would be indistinguishable from the
// peer simply not having sent yet.
type faultConn struct {
	net.Conn
	inj    *Injector
	stream uint64
	// writes counts Write calls. Atomic: ipc.FrameWriter and the hqnet
	// client's flush each serialize their own callers, but the wrapper does
	// not rely on it.
	writes atomic.Uint64
	dead   atomic.Bool
}

// Conn wraps nc with the injector's connection-level faults. Use it as
// hqnet.ClientConfig.WrapConn (or around any stream transport carrying
// 48-byte frames).
func (inj *Injector) Conn(nc net.Conn) net.Conn {
	return &faultConn{Conn: nc, inj: inj, stream: inj.streams.Add(1)}
}

func (fc *faultConn) Write(p []byte) (int, error) {
	inj := fc.inj
	i := fc.writes.Add(1) - 1
	if fc.dead.Load() {
		// Already chaos-killed: behave like the closed socket it is.
		return fc.Conn.Write(p)
	}
	if inj.fires(FaultConnStall, fc.stream, i) {
		time.Sleep(inj.cfg.connStallFor)
	}
	if inj.fires(FaultConnDrop, fc.stream, i) {
		fc.dead.Store(true)
		// Truncate exactly inside a frame: half the frames of the write and
		// half of the next one escape, then the transport dies. The far
		// side's decoder must observe a mid-frame end, never a silently
		// shortened-but-clean stream — and half the bytes of a write that
		// carries an even number of frames would be a frame boundary.
		cut := (len(p)/ipc.MessageSize/2)*ipc.MessageSize + ipc.MessageSize/2
		if cut > len(p) {
			cut = len(p) / 2 // not a framed write
		}
		n := 0
		if cut > 0 {
			n, _ = fc.Conn.Write(p[:cut])
		}
		fc.Conn.Close()
		return n, net.ErrClosed
	}
	if inj.fires(FaultConnDropBoundary, fc.stream, i) {
		fc.dead.Store(true)
		// Truncate exactly AT a frame boundary: half the frames of the write
		// (rounded down to whole frames) escape, then the transport dies.
		// Assumes frame-aligned writes (ipc.FrameWriter and the hqnet client's
		// flush make them) — the cut then lands on a stream frame boundary, so
		// the far side's decoder sees a clean, carry-free end-of-stream and the
		// loss is detectable only above framing (lease expiry or a CheckSeq gap).
		cut := (len(p) / ipc.MessageSize / 2) * ipc.MessageSize
		n := 0
		if cut > 0 {
			n, _ = fc.Conn.Write(p[:cut])
		}
		fc.Conn.Close()
		return n, net.ErrClosed
	}
	return fc.Conn.Write(p)
}
