// Command hqd is the resident HerQules attestation daemon: one verifier
// process hosting the kernel gate and verifier behind TCP and
// Unix-domain listeners, enforcing every connected program remotely.
//
// The paper runs HerQules as a resident service multiplexing all enforced
// applications (§4); hqd is that service with the process boundary made a
// network boundary. Everything about the connection lifecycle fails closed:
// a session that goes silent past its lease is killed with an attributable
// reason, a severed transport resumes from the last acknowledged sequence
// number (so counter verification stays gap-free), and protocol abuse severs
// the connection without touching any other tenant's session.
//
// Quick start:
//
//	hqd -tcp 127.0.0.1:9418 -http 127.0.0.1:9419 &
//	curl -s http://127.0.0.1:9419/metrics | grep herqules_conn
//	curl -s http://127.0.0.1:9419/conns
//	curl -s http://127.0.0.1:9419/healthz
//
// Clients connect with internal/hqnet.Dial, run their instrumented programs
// with the returned Client as the syscall gate, and seal their messages with
// the session key when the daemon runs the hmac policy (the default here:
// the transport is untrusted, so messages authenticate themselves).
//
// SIGTERM or SIGINT begins a graceful drain: listeners close, live sessions
// get -drain to finish and say goodbye, stragglers are severed and their
// leases dispose of them fail-closed.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"herqules/internal/hqnet"
	"herqules/internal/kernel"
	"herqules/internal/obs"
	"herqules/internal/policy"
	"herqules/internal/supervisor"
	"herqules/internal/telemetry"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("hqd: ")

	defaultPolicies := strings.Join(append(append([]string{}, policy.DefaultSet...), "hmac"), ",")

	tcpAddr := flag.String("tcp", "127.0.0.1:9418", "TCP listen address for sessions (empty disables)")
	unixPath := flag.String("unix", "", "Unix-domain socket path for sessions (empty disables)")
	httpAddr := flag.String("http", "", "observability HTTP address (/metrics, /conns, /healthz, /violations; empty disables)")
	lease := flag.Duration("lease", time.Second, "session lease: max silence before a fail-closed kill")
	drain := flag.Duration("drain", 10*time.Second, "graceful-drain budget after SIGTERM/SIGINT")
	policies := flag.String("policies", defaultPolicies, "comma-separated policy set from the registry")
	checkSeq := flag.Bool("checkseq", true, "enforce per-process message-counter continuity")
	kill := flag.Bool("kill", true, "kill on policy violation (false: record only)")
	epoch := flag.Duration("epoch", kernel.DefaultEpoch, "kernel synchronization epoch")
	flight := flag.Int("flight", telemetry.DefaultFlightSlots, "flight-recorder slots per process (rounded up to a power of two; <= 0 selects the default)")
	maxSessions := flag.Int("max-sessions", 256, "global concurrent session cap")
	tenantQuota := flag.Int("tenant-quota", 0, "per-tenant concurrent session cap (0 = no cap)")
	flag.Parse()

	if *tcpAddr == "" && *unixPath == "" {
		log.Fatal("no listeners: pass -tcp and/or -unix")
	}

	names := strings.Split(*policies, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	factory, err := policy.SetFactory(names...)
	if err != nil {
		log.Fatalf("policy set: %v", err)
	}

	sys := supervisor.New(supervisor.Config{
		Policies:        factory,
		KillOnViolation: *kill,
		CheckSeq:        *checkSeq,
		Epoch:           *epoch,
		FlightRecorder:  *flight,
	})
	srv := hqnet.NewServer(hqnet.Config{
		Sys:         sys,
		Lease:       *lease,
		MaxSessions: *maxSessions,
		TenantQuota: *tenantQuota,
	})

	if *tcpAddr != "" {
		ln, err := srv.Listen("tcp", *tcpAddr)
		if err != nil {
			log.Fatalf("tcp listen: %v", err)
		}
		log.Printf("sessions on tcp %s", ln.Addr())
	}
	if *unixPath != "" {
		ln, err := srv.Listen("unix", *unixPath)
		if err != nil {
			log.Fatalf("unix listen: %v", err)
		}
		log.Printf("sessions on unix %s", ln.Addr())
		defer os.Remove(*unixPath)
	}

	var obsrv *obs.Server
	if *httpAddr != "" {
		obsrv = obs.NewServer(sys)
		obsrv.SetConnReporter(srv)
		if err := obsrv.Start(*httpAddr); err != nil {
			log.Fatalf("http listen: %v", err)
		}
		log.Printf("observability on http://%s/metrics (also /conns /healthz /procs /violations)", obsrv.Addr())
	}
	log.Printf("policies=[%s] lease=%v checkseq=%t kill=%t",
		strings.Join(names, " "), *lease, *checkSeq, *kill)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigc
	log.Printf("%s: draining sessions (budget %v)", sig, *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("drain: %v", err)
	}
	if obsrv != nil {
		_ = obsrv.Close()
	}
	st := sys.Stats()
	log.Printf("down: %d launched, %d finished, %d killed, %d messages verified",
		st.Launched, st.Finished, st.Killed, st.MessagesVerified)
}
