// Package transport runs the ESA stages as separate networked services —
// the deployment shape of Figure 1, where encoders, shufflers, and analyzers
// are distinct long-lived parties connected over TCP (the stdlib stand-in
// for the paper's gRPC). Report batches travel on a framed binary data
// plane (wire.go); control calls (keys, health, stats, drain barriers,
// attestation, histograms) ride net/rpc on the same listener.
//
// # Stage topology
//
// Every shuffler runs on the same epoch engine (see engine.go): a service
// ingests wire items, cuts them into epochs, processes each epoch through
// its shuffler.Stage, and pushes the output to a downstream sink. Because
// stage output travels as the shared core.Batch wire union, the downstream
// can be an analyzer or another shuffler hop, so the split-shuffler chain of
// §4.3 deploys as real networked daemons:
//
//	clients -> Shuffler1 daemon -> Shuffler2 daemon -> analyzer daemon
//
// ShufflerService is every shuffler role: the single-shuffler hop (plain or
// SGX stage) and either hop of the split chain; the role decides which batch
// kind it ingests and which keys it serves.
// Inter-hop pushes are at-least-once and deduplicated by (stream, epoch);
// downstream epoch-full backpressure propagates upstream because the pushing
// flusher blocks, its in-flight queue fills, and the hop starts rejecting
// its own clients.
//
// # Streaming model
//
// The services are built for continuous report traffic, not one-shot
// batches. Ingestion is sharded: submissions are stamped with a global
// sequence number and appended to one of N independently locked sub-batches,
// so concurrent clients do not serialize on a single mutex. An epoch
// scheduler cuts the accumulated sub-batches into an epoch — merging them
// by sequence number, which makes the cut deterministic for in-order
// submission — whenever occupancy reaches EpochConfig.FlushAt or the
// EpochConfig.Interval timer fires. Cut epochs enter a bounded in-flight
// queue consumed by a single flusher goroutine, which runs the stage over
// each epoch (stripping the arrival metadata the service inevitably
// recorded) and pushes the output downstream asynchronously, in epoch order.
//
// # Backpressure
//
// A service never grows without bound: when uncut occupancy would exceed
// EpochConfig.MaxPending (because the flusher has fallen behind the arrival
// rate and the in-flight queue is full), submissions fail with ErrEpochFull.
// The error is retryable — clients back off and resubmit once an epoch
// drains; see IsEpochFull and RemotePipeline in the root package.
//
// # Durability
//
// With EpochConfig.WALDir set, a service is crash-safe: every submission is
// appended to a write-ahead log, as one fsynced record carrying its items
// and dedup stamp, before it is acknowledged, every cut epoch's membership
// is persisted before it is pushed, and segments are reclaimed only once their epochs are pushed and
// acked downstream. A restarted daemon recovers the directory — same stream
// id, pending items with their sequence stamps, unresolved epochs re-pushed
// under their original (stream, epoch) pairs — so the at-least-once push
// plus receiver dedup becomes exactly-once across process crashes. See
// wal.go for the log format and EXPERIMENTS.md for a kill-and-restart
// walkthrough.
//
// # Shutdown
//
// Close drains: it cuts the final epoch, waits for every queued epoch to be
// flushed downstream, and only then releases the downstream connection.
package transport

import (
	"crypto/ecdsa"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/metrics"
	"prochlo/internal/sgx"
	"prochlo/internal/shuffler"
)

// DrainArgs selects the drain mode. Force releases a below-floor final
// epoch as Dropped (counted in ServiceStats.Dropped and WAL-resolved, so
// the reconciliation invariant still closes) instead of leaving it pending
// — the final-drain path for a fleet shutting down for good, where a
// sub-floor epoch would otherwise stay pending forever.
type DrainArgs struct {
	Force bool
}

// HealthzReply is the cheap liveness snapshot served by Shuffler.Healthz
// and Analyzer.Healthz. Unlike Stats it takes no engine locks — it reads
// only atomics — so a balancer probe cannot block behind an epoch cut or a
// slow drain.
type HealthzReply struct {
	Healthy      bool
	UptimeMillis int64
	Pending      int
	Accepted     int64
	// Partitions and Peers are fleet-topology metadata installed with
	// SetFleetInfo: the downstream partition count this replica fans out
	// to, and the sibling replica addresses of its own tier.
	Partitions int
	Peers      []string
}

// KeyReply carries a service's public key bytes (Shuffler.PublicKey,
// Analyzer.PublicKey).
type KeyReply struct {
	Key []byte
}

// BlindedKeysReply carries the key material a split-shuffler client needs
// from Shuffler 2: the El Gamal blinding key its crowd IDs are encrypted to
// and the hybrid key its data envelopes are sealed to. Served by the
// shuffler2 role; the shuffler1 hop holds no keys of its own.
type BlindedKeysReply struct {
	Blinding []byte // compressed group element (El Gamal public key, backend-tagged)
	Key      []byte // hybrid public key
}

// AttestationReply carries an SGX shuffler's quote over its public key plus
// the attestation CA's verification key (PKIX-encoded), so a networked
// client can perform the §4.1.1 checks before trusting the key.
type AttestationReply struct {
	Quote sgx.Quote
	CAKey []byte
}

// ServiceStats is a stage service's health/occupancy snapshot.
type ServiceStats struct {
	Pending       int   // items accumulated in the current epoch
	QueuedEpochs  int   // epochs cut but not yet flushed downstream
	EpochsFlushed int   // epochs processed and pushed successfully
	EpochsFailed  int   // epochs whose processing or push failed
	Accepted      int64 // items accepted since start
	Rejected      int64 // items rejected with ErrEpochFull
	// Dropped counts accepted reports that were lost anyway: the contents
	// of failed epochs, and a below-floor final epoch discarded at
	// shutdown (the anonymity floor forbids forwarding it). Operators
	// reconcile Accepted against Cumulative.Received + Dropped + Pending;
	// Unaccounted reports that reconciliation directly.
	Dropped   int64
	LastError string
	// Unaccounted is Accepted - Cumulative.Received - Dropped - Pending,
	// computed only when QueuedEpochs is zero (at a drain barrier every
	// accepted report must be counted downstream, dropped, or pending — a
	// nonzero value there means the accounting leaks). While epochs are in
	// flight the field is zero and meaningless.
	Unaccounted int64
	// RecoveredItems/RecoveredEpochs report what this service replayed from
	// its write-ahead log at startup (zero for a fresh start or no WAL).
	RecoveredItems  int64
	RecoveredEpochs int64
	// Cumulative sums the per-epoch shuffler stats (received, undecryptable,
	// crowds, crowds forwarded, reports forwarded) — the only selectivity
	// signal the shuffler's host is allowed to observe (§4.1.5).
	Cumulative shuffler.Stats
}

// errEpochFullMsg must survive the net/rpc error round trip (the server
// error arrives client-side as a plain string), so IsEpochFull matches on it.
const errEpochFullMsg = "transport: epoch full, retry after flush"

// ErrEpochFull is returned by submissions when the current epoch is at
// capacity and the in-flight queue has not drained. It is retryable:
// clients should back off and resubmit.
var ErrEpochFull = errors.New(errEpochFullMsg)

// IsEpochFull reports whether err is ErrEpochFull, including its
// string-typed form after an RPC round trip.
func IsEpochFull(err error) bool {
	return err != nil && strings.Contains(err.Error(), errEpochFullMsg)
}

// ErrClosed is returned by submissions to a service that has been Closed.
var ErrClosed = errors.New("transport: shuffler service closed")

// EpochConfig tunes a stage service's streaming behavior. The zero value
// disables the scheduler: nothing auto-flushes and epochs are cut only by a
// Drain (or the final cut of Close).
type EpochConfig struct {
	// FlushAt cuts an epoch as soon as occupancy reaches this many items.
	// 0 disables occupancy-driven flushing.
	FlushAt int
	// Interval cuts an epoch when the timer fires, provided occupancy has
	// reached the stage's anonymity floor (forwarding a smaller batch
	// would violate it). 0 disables timer-driven flushing.
	Interval time.Duration
	// MaxPending caps uncut occupancy; submissions beyond it fail with
	// ErrEpochFull. 0 selects 2*FlushAt, or unbounded when FlushAt is 0.
	// In a chain, a hop's MaxPending must fit the epochs its upstream hop
	// forwards (at least the upstream FlushAt), or forwards bounce forever.
	MaxPending int
	// InFlight bounds the queue of cut-but-unflushed epochs. 0 selects 2.
	InFlight int
	// Shards is the number of independently locked ingestion sub-batches.
	// 0 selects GOMAXPROCS. Sharding changes neither results nor ordering:
	// the epoch cut merges shards by global sequence number.
	Shards int
	// DialTimeout bounds connecting to the downstream peer (construction
	// and redials). 0 selects DefaultDialTimeout.
	DialTimeout time.Duration
	// WireTimeout bounds one downstream data-plane call end to end, so a
	// hung peer becomes a retryable fault instead of a stuck flusher.
	// 0 selects DefaultWireTimeout; negative disables the bound.
	WireTimeout time.Duration
	// WALDir enables the write-ahead log: every submission is persisted to
	// this directory (one fsync each) before it is acknowledged, and a restart
	// over the same directory recovers pending items, resumes unresolved
	// epoch pushes under the same (stream, epoch) ids, and restores the
	// forward dedup marks — making the at-least-once push chain
	// exactly-once across process crashes. Empty disables durability.
	WALDir string
	// WALSegmentBytes rotates WAL segment files at this size so resolved
	// epochs' records can be reclaimed. 0 selects DefaultWALSegmentBytes.
	WALSegmentBytes int
	// RedialAttempts bounds reconnects to a dead downstream per push before
	// the epoch is declared failed. 0 selects DefaultRedialAttempts;
	// negative disables redialing.
	RedialAttempts int
	// RedialBase is the first redial backoff; each attempt doubles it.
	// 0 selects DefaultRedialBase.
	RedialBase time.Duration
	// RedialJitter spreads each backoff by ±this fraction so restarting
	// hops are not hammered in lockstep. 0 selects DefaultRedialJitter;
	// negative disables jitter.
	RedialJitter float64
	// Fault, when non-nil, injects failures into this service's downstream
	// pushes on a seeded schedule — the crash-recovery test harness. Nil in
	// production.
	Fault *FaultPlan
	// Metrics, when non-nil, registers this service's engine, WAL, and
	// stage-latency instruments (the prochlo_* series; see
	// docs/OPERATIONS.md for the catalog) on the given registry. Nil
	// disables instrumentation at zero hot-path cost.
	Metrics *metrics.Registry
	// MetricsLabels is attached to every series this service registers —
	// conventionally at least {"role": ...}, plus {"replica": ...} when
	// several services share one registry. Ignored when Metrics is nil.
	MetricsLabels metrics.Labels
}

// forwardDedup tracks inter-hop pushes (and stamped client submissions)
// already ingested, so an at-least-once retry (the pusher's reply was lost)
// is acknowledged without re-ingesting. Two concurrent deliveries of the
// same key — e.g. a dead replica's in-flight push racing its WAL-recovered
// successor's replay of the same (stream, epoch) — must not both ingest, and
// a push rejected by backpressure must not be marked seen. Rather than
// holding one lock across the whole check-ingest-mark sequence (which would
// serialize every concurrent submission), a per-key busy set makes same-key
// deliveries wait on each other while distinct keys ingest in parallel.
type forwardDedup struct {
	mu   sync.Mutex
	cond *sync.Cond
	seen map[[2]int64]bool
	busy map[[2]int64]bool
}

// restore pre-loads marks recovered from a WAL, so upstream retries of
// pushes ingested before a crash are still absorbed after the restart.
func (d *forwardDedup) restore(marks [][2]int64) {
	if len(marks) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen == nil {
		d.seen = make(map[[2]int64]bool, len(marks))
	}
	for _, m := range marks {
		d.seen[m] = true
	}
}

// ingest runs add once per (stream, epoch) key: a key already seen is
// acknowledged without re-ingesting, a key mid-ingest by a concurrent
// delivery is waited out, and only a successful add marks the key. Pushes
// with a zero (stream, epoch) skip dedup entirely.
func (d *forwardDedup) ingest(stream, epoch int64, add func() error) error {
	if stream == 0 && epoch == 0 {
		return add()
	}
	key := [2]int64{stream, epoch}
	d.mu.Lock()
	if d.cond == nil {
		d.cond = sync.NewCond(&d.mu)
	}
	for d.busy[key] {
		d.cond.Wait()
	}
	if d.seen[key] {
		d.mu.Unlock()
		return nil
	}
	if d.busy == nil {
		d.busy = make(map[[2]int64]bool)
	}
	d.busy[key] = true
	d.mu.Unlock()

	err := add()

	d.mu.Lock()
	delete(d.busy, key)
	if err == nil {
		if d.seen == nil {
			d.seen = make(map[[2]int64]bool)
		}
		d.seen[key] = true
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	return err
}

// stageEngine is ShufflerService's view of its epoch engine: everything the
// RPC surface needs, with the engine's ingested item type hidden behind
// core.Batch (see wireOps).
type stageEngine interface {
	kind() core.BatchKind
	addForward(stream, pos int64, b core.Batch) error
	forceFlush(forceDrop bool) error
	stats(reply *ServiceStats)
	healthz(reply *HealthzReply)
	config() EpochConfig
	close() error
	abort()
}

// ShufflerService exposes one shuffler role over the network. Every role
// runs the same epoch engine and differs only in stage, ingested batch kind,
// sink, and served keys:
//
//   - the single shuffler (NewStageShufflerFleetService: the plain trusted
//     shuffler or the SGX-hardened variant) ingests client envelopes,
//     pushes peeled payloads to the analyzer tier, and serves its key over
//     Shuffler.PublicKey (plus a quote over Shuffler.Attestation under SGX);
//   - the shuffler1 hop of the §4.3 chain (NewShuffler1FleetService)
//     ingests client blinded envelopes, blinds and shuffles each epoch, and
//     forwards it to the shuffler2 tier; it holds no keys;
//   - the shuffler2 hop (NewShuffler2FleetService) ingests forwarded
//     blinded epochs, thresholds on blinded pseudonyms, peels its layer,
//     pushes the surviving inner ciphertexts to the analyzer tier, and
//     serves the chain's client key material over Shuffler.Keys.
//
// Client submissions and upstream pushes arrive on the binary data plane
// and land in one handler: a batch of the wrong kind is refused, and every
// stamped (stream, seq-or-epoch) delivery is ingested at most once.
// Backpressure composes across a chain: when hop 2 rejects a forward as
// epoch-full, hop 1's flusher backs off and retries, its in-flight queue
// fills, and hop 1 starts rejecting its own clients with the same retryable
// error. See the package comment for the epoch/backpressure model.
type ShufflerService struct {
	eng stageEngine
	fwd forwardDedup

	// Key material served to clients; which fields are set depends on the
	// role (see the type comment).
	pub         []byte // PublicKey: the single shuffler's hybrid key
	blindingPub []byte // Keys: shuffler2's El Gamal blinding key
	hybridPub   []byte // Keys: shuffler2's hybrid key

	attMu sync.Mutex
	att   *AttestationReply

	fleetMu    sync.Mutex
	partitions int
	peers      []string
}

// newShufflerService wires any role: an engine over st ingesting ops' item
// type, pushing each processed epoch to nextAddrs with the frame method.
// Several addresses form a partitioned downstream tier (see fanoutSink).
func newShufflerService[T any](st shuffler.Stage, ops wireOps[T], nextAddrs []string, method uint8, cfg EpochConfig) (*ShufflerService, error) {
	ab := newAborter()
	snk, err := newTier(nextAddrs, method, cfg, ab)
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(cfg, st, snk, ab, ops)
	if err != nil {
		return nil, err
	}
	svc := &ShufflerService{eng: eng}
	svc.fwd.restore(eng.recMarks)
	return svc, nil
}

// NewStageShufflerFleetService wraps a single-shuffler stage (the plain
// Shuffler or an SGXShuffler) whose epochs are pushed to the analyzer tier
// at analyzerAddrs according to cfg: each processed epoch is split across
// the partitions by content hash, with per-partition (stream, epoch) dedup
// keeping the fan-in exactly-once. pub is the key served to clients over
// Shuffler.PublicKey. The caller should Close the service to drain and
// release the downstream connections.
func NewStageShufflerFleetService(st shuffler.Stage, pub []byte, analyzerAddrs []string, cfg EpochConfig) (*ShufflerService, error) {
	svc, err := newShufflerService(st, envelopeOps, analyzerAddrs, wireIngest, cfg)
	if err != nil {
		return nil, err
	}
	svc.pub = pub
	return svc, nil
}

// NewShuffler1FleetService wraps the first split-shuffler hop, forwarding
// each blinded-and-shuffled epoch to the shuffler2 tier at nextAddrs. Each
// epoch is split by the client-stamped owning partition (PartitionOf over
// the crowd ID, which blinding preserves) and pushed to the owning replica,
// so the partition that thresholds a crowd sees all of it no matter which
// hop-1 replica the reports entered through.
func NewShuffler1FleetService(s1 *shuffler.Shuffler1, nextAddrs []string, cfg EpochConfig) (*ShufflerService, error) {
	return newShufflerService(s1, blindedOps, nextAddrs, wireForward, cfg)
}

// NewShuffler2FleetService wraps the second split-shuffler hop, pushing each
// processed epoch's surviving inner ciphertexts to the analyzer tier at
// analyzerAddrs, spread by content hash (the analyzer merge is commutative,
// so any deterministic spread is correct). The service serves s2's blinding
// and hybrid public keys to clients over Shuffler.Keys.
func NewShuffler2FleetService(s2 *shuffler.Shuffler2, analyzerAddrs []string, cfg EpochConfig) (*ShufflerService, error) {
	if s2.Blinding == nil || s2.Priv == nil {
		return nil, errors.New("transport: shuffler 2 needs blinding and hybrid keys")
	}
	svc, err := newShufflerService(s2, blindedOps, analyzerAddrs, wireIngest, cfg)
	if err != nil {
		return nil, err
	}
	svc.blindingPub = s2.Blinding.H.Bytes()
	svc.hybridPub = s2.Priv.Public().Bytes()
	return svc, nil
}

// serveWire is the data-plane handler for the three shuffler frame methods
// (client submission of plain or blinded envelopes, hop-to-hop Forward):
// the batch must be the kind this role ingests, and a stamped delivery is
// ingested at most once — a client's retry after an ambiguous connection
// error, or an upstream hop's at-least-once push, is acknowledged without
// re-ingesting.
// The batch is accepted or rejected atomically: on ErrEpochFull nothing is
// ingested. With a WAL the dedup mark persists with the items.
func (s *ShufflerService) serveWire(method uint8, stream, pos int64, b core.Batch) (int, error) {
	if method != wireSubmitBatch && method != wireSubmitBlinded && method != wireForward {
		return 0, fmt.Errorf("transport: shuffler does not serve wire method %d", method)
	}
	if k := b.Kind(); k != s.eng.kind() && k != core.KindEmpty {
		return 0, fmt.Errorf("transport: shuffler ingests %v, got %v", s.eng.kind(), k)
	}
	if err := s.fwd.ingest(stream, pos, func() error { return s.eng.addForward(stream, pos, b) }); err != nil {
		return 0, err
	}
	return b.Len(), nil
}

// SetAttestation installs the quote served over the Shuffler.Attestation
// RPC (the SGX deployment: the quote covers the service's public key and
// caKey is the attestation CA's ECDSA verification key).
func (s *ShufflerService) SetAttestation(quote sgx.Quote, caKey *ecdsa.PublicKey) error {
	der, err := x509.MarshalPKIXPublicKey(caKey)
	if err != nil {
		return fmt.Errorf("transport: marshal CA key: %w", err)
	}
	s.attMu.Lock()
	s.att = &AttestationReply{Quote: quote, CAKey: der}
	s.attMu.Unlock()
	return nil
}

// Attestation serves the SGX quote over the service's public key; it fails
// on a service running without an enclave (clients requiring attestation
// must not fall back silently).
func (s *ShufflerService) Attestation(_ struct{}, reply *AttestationReply) error {
	s.attMu.Lock()
	defer s.attMu.Unlock()
	if s.att == nil {
		return errors.New("transport: shuffler runs without SGX attestation")
	}
	*reply = *s.att
	return nil
}

// PublicKey returns the single shuffler's encryption key. (An SGX deployment
// additionally serves the quote over it; see Attestation.) The split-chain
// hops hold no such key and fail.
func (s *ShufflerService) PublicKey(_ struct{}, reply *KeyReply) error {
	if len(s.pub) == 0 {
		return errors.New("transport: this shuffler serves no public key (split-chain hops serve Keys from the shuffler2 daemon)")
	}
	reply.Key = s.pub
	return nil
}

// Keys serves the split-shuffler client key material. Only the shuffler2
// hop holds it — clients fetch it from the shuffler2 daemon directly,
// preserving the rule that no single hop could both see traffic metadata
// and decrypt.
func (s *ShufflerService) Keys(_ struct{}, reply *BlindedKeysReply) error {
	if len(s.blindingPub) == 0 {
		return errors.New("transport: this hop holds no keys (fetch them from the shuffler2 daemon)")
	}
	reply.Blinding = s.blindingPub
	reply.Key = s.hybridPub
	return nil
}

// Config returns the service's effective epoch configuration, with every
// default and clamp applied.
func (s *ShufflerService) Config() EpochConfig { return s.eng.config() }

// SetFleetInfo installs the fleet-topology metadata served over Healthz:
// the downstream partition count this replica fans out to and the sibling
// replicas of its own tier. Purely informational — routing is configured at
// construction.
func (s *ShufflerService) SetFleetInfo(partitions int, peers []string) {
	s.fleetMu.Lock()
	s.partitions = partitions
	s.peers = append([]string(nil), peers...)
	s.fleetMu.Unlock()
}

// Healthz serves the cheap liveness probe; see HealthzReply.
func (s *ShufflerService) Healthz(_ struct{}, reply *HealthzReply) error {
	s.eng.healthz(reply)
	s.fleetMu.Lock()
	reply.Partitions = s.partitions
	reply.Peers = s.peers
	s.fleetMu.Unlock()
	return nil
}

// Drain cuts the current epoch if it meets the anonymity floor — a
// below-floor epoch is left pending, where it can still grow — waits for
// every queued epoch to reach the next hop, and returns the service stats.
// It succeeds when nothing is pending, so clients use it as a barrier
// before querying downstream. Chains drain in hop order: hop 1 first (its
// final epoch must reach hop 2's ingestion before hop 2's drain cuts), then
// hop 2. With DrainArgs.Force a below-floor epoch is released as Dropped
// instead of left pending (final drain).
func (s *ShufflerService) Drain(args DrainArgs, reply *ServiceStats) error {
	if err := s.eng.forceFlush(args.Force); err != nil {
		return err
	}
	return s.Stats(struct{}{}, reply)
}

// Stats reports the service's occupancy, epoch counters, and cumulative
// selectivity.
func (s *ShufflerService) Stats(_ struct{}, reply *ServiceStats) error {
	s.eng.stats(reply)
	return nil
}

// Close gracefully shuts the service down: it stops accepting submissions,
// cuts and flushes the final epoch (if it meets the anonymity floor), waits
// for every queued epoch to reach the next hop, and releases the downstream
// connections.
func (s *ShufflerService) Close() error { return s.eng.close() }

// Abort simulates a crash (kill -9) for the recovery test harness: no final
// cut, no flush, no WAL sync — the log directory is left exactly as a dead
// process would leave it, for a successor service on the same WALDir to
// recover. Production shutdown is Close.
func (s *ShufflerService) Abort() { s.eng.abort() }

// HistogramReply is the analyzer's histogram of its materialized database.
type HistogramReply struct {
	Counts        map[string]int
	Undecryptable int
}

// AnalyzerStats is the analyzer service's health snapshot.
type AnalyzerStats struct {
	Records       int // materialized database rows
	Undecryptable int
	Ingests       int // ingest RPCs served
}

// AnalyzerService exposes an analyzer over RPC.
type AnalyzerService struct {
	start time.Time

	mu            sync.Mutex
	an            *analyzer.Analyzer
	pub           []byte
	db            [][]byte
	undecryptable int
	ingests       int
	// seen dedups retried pushes by (stream, epoch): the shuffler's push
	// retry is at-least-once (a reply can be lost after the analyzer
	// ingested), so an epoch already materialized is not ingested again.
	seen map[[2]int64]bool
}

// NewAnalyzerService wraps an analyzer.
func NewAnalyzerService(an *analyzer.Analyzer, pub []byte) *AnalyzerService {
	return &AnalyzerService{start: time.Now(), an: an, pub: pub, seen: make(map[[2]int64]bool)}
}

// Healthz serves the cheap liveness probe (lock-free; see HealthzReply).
func (a *AnalyzerService) Healthz(_ struct{}, reply *HealthzReply) error {
	reply.Healthy = true
	reply.UptimeMillis = time.Since(a.start).Milliseconds()
	return nil
}

// PublicKey returns the analyzer's encryption key.
func (a *AnalyzerService) PublicKey(_ struct{}, reply *KeyReply) error {
	reply.Key = a.pub
	return nil
}

// serveWire is the analyzer's data-plane handler: it decrypts and
// materializes a pushed batch of shuffled records. A retried push of an
// epoch this service already materialized (the shuffler's reply was lost)
// is acknowledged without re-ingesting; a zero (stream, epoch) skips dedup.
func (a *AnalyzerService) serveWire(method uint8, stream, epoch int64, b core.Batch) (int, error) {
	if method != wireIngest {
		return 0, fmt.Errorf("transport: analyzer does not serve wire method %d", method)
	}
	if k := b.Kind(); k != core.KindPayloads && k != core.KindEmpty {
		return 0, fmt.Errorf("transport: analyzer ingests %v, got %v", core.KindPayloads, k)
	}
	key := [2]int64{stream, epoch}
	dedup := stream != 0 || epoch != 0
	if dedup {
		a.mu.Lock()
		seen := a.seen[key]
		a.mu.Unlock()
		if seen {
			return len(b.Payloads), nil
		}
	}
	db, undec := a.an.Open(b.Payloads)
	a.mu.Lock()
	defer a.mu.Unlock()
	if dedup && a.seen[key] {
		// A concurrent retry of the same epoch won the race.
		return len(b.Payloads), nil
	}
	if dedup {
		a.seen[key] = true
	}
	a.db = append(a.db, db...)
	a.undecryptable += undec
	a.ingests++
	return len(b.Payloads), nil
}

// Histogram returns the histogram of the materialized database.
func (a *AnalyzerService) Histogram(_ struct{}, reply *HistogramReply) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	reply.Counts = analyzer.Histogram(a.db)
	reply.Undecryptable = a.undecryptable
	return nil
}

// Stats reports the analyzer service's database size and ingest counters.
func (a *AnalyzerService) Stats(_ struct{}, reply *AnalyzerStats) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	reply.Records = len(a.db)
	reply.Undecryptable = a.undecryptable
	reply.Ingests = a.ingests
	return nil
}

// Serve registers rcvr under name and serves it on addr (use "127.0.0.1:0"
// for an ephemeral port). Every accepted connection is protocol-sniffed: the
// binary data plane and the net/rpc control plane share the one listener
// (see wire.go). It returns the listener; callers close it to stop.
func Serve(addr, name string, rcvr any) (net.Listener, error) {
	srv, err := NewRPCServer(name, rcvr)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			go srv.ServeConn(conn)
		}
	}()
	return l, nil
}

// IsTransient reports whether err looks like a connection-level failure —
// the RPC may or may not have reached the service — rather than an error
// the service itself returned. Transient errors are worth retrying on a
// fresh connection to the same address; with a stamped (stream, seq) the
// service's dedup absorbs the ambiguous redelivery.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var se rpc.ServerError
	if errors.As(err, &se) {
		return false
	}
	if errors.Is(err, rpc.ErrShutdown) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Client-side transient-retry policy for SubmitAll: how many fresh
// connections to attempt after a connection-level failure, starting from
// this backoff (doubled and jittered per redialPolicy).
const (
	DefaultClientRedials    = 8
	DefaultClientRedialBase = 25 * time.Millisecond
)

// Client is a convenience handle for submitting reports to a shuffler-role
// service — a plain/SGX shuffler daemon or either hop of the blinded chain.
// Batches travel on a lazily negotiated binary data-plane connection,
// control calls on net/rpc. It remembers the address it dialed:
// SubmitAll/SubmitAllBlinded transparently redial it on connection-level
// failures, and every batch submission carries a (stream, seq) stamp so
// such a retry is deduplicated service-side even when the original attempt
// was ingested but its ack was lost.
type Client struct {
	addr    string
	timeout time.Duration
	stream  int64
	seq     atomic.Int64

	// Transient-redial budget for SubmitAll; see SetRedial.
	redials    int
	redialBase time.Duration

	mu  sync.Mutex
	rpc *rpc.Client
	wc  *wireConn // lazily negotiated data-plane connection
}

// Dial connects to a shuffler service with the default connect timeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout connects to a shuffler service, bounding the TCP connect
// (timeout <= 0 selects DefaultDialTimeout).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	c, err := dialRPC(addr, timeout)
	if err != nil {
		return nil, err
	}
	stream, err := newStreamID()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: client stream id: %w", err)
	}
	return &Client{
		addr:       addr,
		timeout:    timeout,
		stream:     stream,
		redials:    DefaultClientRedials,
		redialBase: DefaultClientRedialBase,
		rpc:        c,
	}, nil
}

// SetRedial tunes the transient-failure retry budget of SubmitAll and
// SubmitAllBlinded: up to attempts fresh connections, with jittered
// exponential backoff from base. attempts < 0 disables transient retries;
// base <= 0 keeps the default.
func (c *Client) SetRedial(attempts int, base time.Duration) {
	if attempts < 0 {
		attempts = 0
	}
	c.redials = attempts
	if base > 0 {
		c.redialBase = base
	}
}

// Addr returns the address the client dialed.
func (c *Client) Addr() string { return c.addr }

// call issues one control-plane RPC.
func (c *Client) call(method string, args, reply any) error {
	c.mu.Lock()
	cl := c.rpc
	c.mu.Unlock()
	return cl.Call(method, args, reply)
}

// push ships one stamped batch on the data plane, negotiating the
// connection on first use.
func (c *Client) push(method uint8, seq int64, b core.Batch) error {
	wc, err := c.wireDataConn()
	if err != nil {
		return err
	}
	_, err = wc.call(method, c.stream, seq, b)
	return err
}

// wireDataConn returns the client's data-plane connection, dialing and
// negotiating it on first use or after the previous one broke.
func (c *Client) wireDataConn() (*wireConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wc != nil {
		if !c.wc.isBroken() {
			return c.wc, nil
		}
		c.wc.close()
		c.wc = nil
	}
	wc, err := dialWire(c.addr, c.timeout, DefaultWireTimeout)
	if err != nil {
		return nil, err
	}
	c.wc = wc
	return wc, nil
}

// redial replaces the control connection with a fresh one to the same
// address. The data-plane connection is dropped and renegotiated lazily, so
// a restarted peer gets a fresh handshake.
func (c *Client) redial() error {
	cl, err := dialRPC(c.addr, c.timeout)
	if err != nil {
		return err
	}
	c.mu.Lock()
	old, oldWC := c.rpc, c.wc
	c.rpc, c.wc = cl, nil
	c.mu.Unlock()
	old.Close()
	if oldWC != nil {
		oldWC.close()
	}
	return nil
}

// retryTransient runs call, retrying connection-level failures on fresh
// connections under the client's redial budget. call must be idempotent or
// carry a dedup stamp: an attempt that died mid-call may have been
// ingested, and only the stamp makes the retry safe.
func (c *Client) retryTransient(call func() error) error {
	err := call()
	pol := redialPolicy{attempts: c.redials, base: c.redialBase, jitter: DefaultRedialJitter}
	for attempt := 0; IsTransient(err) && attempt < pol.attempts; attempt++ {
		time.Sleep(pol.delay(attempt))
		if derr := c.redial(); derr != nil {
			err = derr
			continue
		}
		err = call()
	}
	return err
}

// ShufflerKey fetches the shuffler's public key.
func (c *Client) ShufflerKey() ([]byte, error) {
	var reply KeyReply
	if err := c.call("Shuffler.PublicKey", struct{}{}, &reply); err != nil {
		return nil, err
	}
	if len(reply.Key) == 0 {
		return nil, errors.New("transport: empty shuffler key")
	}
	return reply.Key, nil
}

// Attestation fetches an SGX shuffler's quote and attestation-CA key and
// verifies both §4.1.1 client-side checks: the CA signature over the quote
// and the expected code measurement. It returns the attested public key
// (the quote's report data) only when verification succeeds.
func (c *Client) Attestation(measurement [32]byte) ([]byte, error) {
	var reply AttestationReply
	if err := c.call("Shuffler.Attestation", struct{}{}, &reply); err != nil {
		return nil, err
	}
	caAny, err := x509.ParsePKIXPublicKey(reply.CAKey)
	if err != nil {
		return nil, fmt.Errorf("transport: attestation CA key: %w", err)
	}
	caKey, ok := caAny.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("transport: attestation CA key is %T, want ECDSA", caAny)
	}
	if err := sgx.VerifyQuote(caKey, reply.Quote, measurement); err != nil {
		return nil, err
	}
	return reply.Quote.ReportData, nil
}

// BlindedKeys fetches the split-shuffler key material (Shuffler 2's
// blinding and hybrid keys). Only the shuffler2 role serves it.
func (c *Client) BlindedKeys() (BlindedKeysReply, error) {
	var reply BlindedKeysReply
	if err := c.call("Shuffler.Keys", struct{}{}, &reply); err != nil {
		return BlindedKeysReply{}, err
	}
	if len(reply.Blinding) == 0 || len(reply.Key) == 0 {
		return BlindedKeysReply{}, errors.New("transport: empty blinded shuffler keys")
	}
	return reply, nil
}

// SubmitBatch ships a whole batch of envelopes in one round trip. The batch
// is accepted atomically; on an IsEpochFull error nothing was ingested and
// the caller should back off and resubmit. The batch carries a fresh
// (stream, seq) stamp.
func (c *Client) SubmitBatch(envs []core.Envelope) error {
	return c.push(wireSubmitBatch, c.seq.Add(1), core.Batch{Envelopes: envs})
}

// Default epoch-full retry policy shared by SubmitAll callers.
const (
	DefaultSubmitRetries = 50
	DefaultSubmitDelay   = 20 * time.Millisecond
)

// submitAll is the backpressure-adapting submission loop shared by
// SubmitAll and SubmitAllBlinded; see SubmitAll for the contract.
func submitAll[T any](submit func([]T) error, envs []T, retries int, delay time.Duration) (accepted int, err error) {
	err = submit(envs)
	if err == nil {
		return len(envs), nil
	}
	if !IsEpochFull(err) {
		return 0, err
	}
	if len(envs) > 1 {
		mid := len(envs) / 2
		n, err := submitAll(submit, envs[:mid], retries, delay)
		if err != nil {
			return n, err
		}
		m, err := submitAll(submit, envs[mid:], retries, delay)
		return n + m, err
	}
	for attempt := 0; IsEpochFull(err) && attempt < retries; attempt++ {
		time.Sleep(delay)
		err = submit(envs)
	}
	if err != nil {
		return 0, err
	}
	return 1, nil
}

// submitStamped is one stamped submission with transient retries: the
// stamp is drawn once, before the first attempt, and every retry resends
// it.
func (c *Client) submitStamped(method uint8, b core.Batch) error {
	seq := c.seq.Add(1)
	return c.retryTransient(func() error { return c.push(method, seq, b) })
}

// SubmitAll ships a batch of envelopes, adapting to the service's
// backpressure: a batch rejected as epoch-full is split in half and the
// halves submitted in order (a batch larger than the occupancy cap can
// never be accepted whole), and a single epoch-full envelope is retried
// with backoff — up to retries attempts at delay apart — until the epoch
// drains. Splitting preserves submission order, so a seeded deployment
// stays deterministic.
//
// It returns how many envelopes the service accepted. Submission stops at
// the first unrecoverable error, and splitting preserves order, so the
// accepted envelopes are exactly the prefix envs[:accepted]: on error a
// caller resumes from envs[accepted:] rather than resubmitting the whole
// batch (which would double-count the accepted prefix).
//
// Connection-level failures are also retried, on fresh connections to the
// same address under the client's SetRedial budget. Each slice is stamped
// with a (stream, seq) pair before its first attempt, and the retry resends
// the identical stamp, so a slice whose original attempt was ingested but
// whose ack was lost is absorbed by the service's dedup — the retry cannot
// double-submit. Only after the redial budget is exhausted does the error
// surface, with the accepted-prefix contract intact.
func (c *Client) SubmitAll(envs []core.Envelope, retries int, delay time.Duration) (accepted int, err error) {
	return submitAll(func(slice []core.Envelope) error {
		return c.submitStamped(wireSubmitBatch, core.Batch{Envelopes: slice})
	}, envs, retries, delay)
}

// SubmitAllBlinded is SubmitAll for split-shuffler envelopes: same
// splitting, backoff, transient-redial, and accepted-prefix contract.
func (c *Client) SubmitAllBlinded(envs []core.BlindedEnvelope, retries int, delay time.Duration) (accepted int, err error) {
	return submitAll(func(slice []core.BlindedEnvelope) error {
		return c.submitStamped(wireSubmitBlinded, core.Batch{Blinded: slice})
	}, envs, retries, delay)
}

// Drain flushes anything pending, waits for every queued epoch to reach the
// next hop, and returns the service stats — the barrier to use before
// querying downstream. Draining a chain is hop order: drain Shuffler 1 so
// its final epoch reaches Shuffler 2, then drain Shuffler 2 so it reaches
// the analyzer.
func (c *Client) Drain() (ServiceStats, error) {
	return c.DrainMode(false)
}

// DrainMode is Drain with an explicit mode: force additionally releases a
// below-floor final epoch as Dropped instead of leaving it pending — the
// final drain of a deployment that is shutting down for good.
//
// Draining is idempotent (a second drain of a drained service is an empty
// barrier), so connection-level failures are retried on fresh connections
// under the client's redial budget: a fleet drain tolerates a replica that
// crashed and is restarting over its WAL, surfacing the recovered
// successor's stats instead of failing the barrier.
func (c *Client) DrainMode(force bool) (ServiceStats, error) {
	var reply ServiceStats
	err := c.retryTransient(func() error { return c.call("Shuffler.Drain", DrainArgs{Force: force}, &reply) })
	return reply, err
}

// Stats fetches the shuffler service's health snapshot.
func (c *Client) Stats() (ServiceStats, error) {
	var reply ServiceStats
	err := c.call("Shuffler.Stats", struct{}{}, &reply)
	return reply, err
}

// Healthz fetches the cheap liveness snapshot (no engine locks server-side;
// see HealthzReply). Balancer probes use it.
func (c *Client) Healthz() (HealthzReply, error) {
	var reply HealthzReply
	err := c.call("Shuffler.Healthz", struct{}{}, &reply)
	return reply, err
}

// Close releases the connections (control and, if negotiated, data plane).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wc != nil {
		c.wc.close()
		c.wc = nil
	}
	return c.rpc.Close()
}

// AnalyzerClient is a convenience handle for querying an analyzer service.
type AnalyzerClient struct {
	rpc *rpc.Client
}

// DialAnalyzer connects to an analyzer service with the default connect
// timeout.
func DialAnalyzer(addr string) (*AnalyzerClient, error) {
	return DialAnalyzerTimeout(addr, 0)
}

// DialAnalyzerTimeout connects to an analyzer service, bounding the TCP
// connect (timeout <= 0 selects DefaultDialTimeout).
func DialAnalyzerTimeout(addr string, timeout time.Duration) (*AnalyzerClient, error) {
	c, err := dialRPC(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &AnalyzerClient{rpc: c}, nil
}

// AnalyzerKey fetches the analyzer's public key.
func (c *AnalyzerClient) AnalyzerKey() ([]byte, error) {
	var reply KeyReply
	if err := c.rpc.Call("Analyzer.PublicKey", struct{}{}, &reply); err != nil {
		return nil, err
	}
	if len(reply.Key) == 0 {
		return nil, errors.New("transport: empty analyzer key")
	}
	return reply.Key, nil
}

// Histogram fetches the histogram of the analyzer's materialized database.
func (c *AnalyzerClient) Histogram() (map[string]int, int, error) {
	var reply HistogramReply
	if err := c.rpc.Call("Analyzer.Histogram", struct{}{}, &reply); err != nil {
		return nil, 0, err
	}
	return reply.Counts, reply.Undecryptable, nil
}

// Stats fetches the analyzer service's health snapshot.
func (c *AnalyzerClient) Stats() (AnalyzerStats, error) {
	var reply AnalyzerStats
	err := c.rpc.Call("Analyzer.Stats", struct{}{}, &reply)
	return reply, err
}

// Close releases the connection.
func (c *AnalyzerClient) Close() error { return c.rpc.Close() }
