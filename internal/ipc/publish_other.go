//go:build !amd64 || race

package ipc

import "sync/atomic"

// Publish stores v into *p. Off amd64, where a plain store may pass an
// earlier one, and under -race, where the detector must see the hand-off,
// it is the sequentially consistent atomic store.
func Publish(p *atomic.Uint64, v uint64) { p.Store(v) }
