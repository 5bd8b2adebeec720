//go:build !race

package ipc

import "sync/atomic"

// Publish stores v into *p with release semantics and no fence: one MOVQ.
// It is how a single producer hands a cursor over (the ring's head, the hqnet
// client's tail): amd64 never reorders a store with an earlier store, so a
// core that loads v also sees every slot written before the call, and the
// call keeps the compiler from moving those writes past it. What the MOVQ
// does not order is a later load: the store may still sit in the store
// buffer when the caller next reads a peer's flag (see waiter). Under -race
// this file is left out for publish_other.go, whose atomic store the
// detector can see.
//
//go:noescape
func Publish(p *atomic.Uint64, v uint64)
