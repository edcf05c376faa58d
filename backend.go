package sttsv

import (
	"repro/internal/machine"
	"repro/internal/netwire"
)

// This file re-exports the packet-backend seam: the machine.Backend API a
// RunConfig selects its raw packet layer through (the in-memory simulator
// is the default), and the real-socket loopback from internal/netwire.
// Every run shape — ParallelCompute, sessions, the serving pool — takes
// the backend through RunConfig (ParallelOptions.Machine), so switching a
// program from simulated mailboxes to real kernel sockets is a one-line
// configuration change:
//
//	opts.Machine.BackendFactory = sttsv.TCPLoopback
//
// See ExampleReplay and the cmd tools' shared -backend flag
// (internal/backendflag) for complete flows.

// Backend supplies the raw packet layer a machine runs on: one
// BackendWire per local rank. Nil in RunConfig selects the in-memory
// simulator.
type Backend = machine.Backend

// BackendWire is one rank's raw packet endpoint as a Backend provides
// it — pure packet movement; the machine layers metering, epoch fencing
// and abort semantics on top.
type BackendWire = machine.BackendWire

// TCPLoopback is a RunConfig.BackendFactory building a fresh TCP loopback
// backend per machine incarnation: all P ranks of one process run over
// real sockets — every packet framed, written to the kernel and decoded
// back — while the machine and everything above it run unchanged.
// Results and logical meters match the simulator bit for bit.
func TCPLoopback() (Backend, error) { return netwire.NewLoopback("tcp") }
