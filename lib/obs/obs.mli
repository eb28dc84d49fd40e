(** Cross-layer tracing and metrics, charged to the simulated clock.

    One process-wide observability spine for every layer of the stack:
    the device models, the buffer cache, the relation heap, the lock
    manager, transactions, vacuuming, recovery, and the wire protocol
    all emit into the same bounded ring-buffer trace and the same
    metrics registry.  Benchmarks read it to explain where time went;
    tests read it as a correctness oracle — asserting {e how} a result
    was produced (no device read on a memoized re-read, one batched
    continuation burst per read-ahead run, nothing after the commit
    point inside a transaction's span), not just what the result was.

    {b Cost discipline.}  Every subsystem has an enable bit in one
    global mask.  [on subsys] is a single load-and-test with no
    allocation, and instrumented hot paths guard their emissions with
    it, so with all subsystems disabled tracing adds {e zero
    allocation} to paths like [Bufcache.get] (a test asserts this with
    [Gc.minor_words]).  Registry counters are bare mutable ints —
    incrementing one never allocates — so counters that mirror legacy
    per-instance stats may be bumped unconditionally; only emissions
    that build event records, read the float clock, or feed histograms
    hide behind the mask.

    Timestamps come from the clock installed with {!set_clock}
    (installed by [Relstore.Db.create], so any system built the normal
    way is covered); with no clock installed events are stamped 0 and
    ordered by sequence number alone. *)

(** {1 Subsystems} *)

type subsys =
  | Device  (** block transfers: reads, writes, continuation bursts *)
  | Cache  (** buffer pool: hit/miss/evict/read-ahead *)
  | Heap  (** relation heap: insert/update/delete/scan *)
  | Lock  (** lock manager: acquire/wait/deadlock *)
  | Txn  (** transactions: begin/commit/abort spans *)
  | Vacuum  (** the vacuum cleaner *)
  | Recovery  (** crash recovery and audit *)
  | Net  (** wire protocol: frames, retries, timeouts *)

val all_subsystems : subsys list
val subsys_name : subsys -> string
val subsys_of_name : string -> subsys option

val on : subsys -> bool
(** Mask test; allocation-free.  Instrumented hot paths call this
    before building any event payload. *)

val enable : subsys -> unit
val disable : subsys -> unit
val enable_all : unit -> unit
val disable_all : unit -> unit
val enabled_subsystems : unit -> subsys list

val set_clock : Simclock.Clock.t -> unit
(** Install the clock that stamps events (last call wins — harnesses
    that run an oracle system beside the real one trace whichever
    installed last). *)

val clear_clock : unit -> unit

(** {1 Typed events and spans} *)

type arg = I of int | S of string | F of float

type kind = Point | Span_begin | Span_end

type event = {
  seq : int;  (** monotonically increasing emission number *)
  t_us : int64;  (** simulated time, µs *)
  subsys : subsys;
  name : string;  (** dotted, e.g. ["device.read"] *)
  kind : kind;
  depth : int;  (** span nesting depth at emission *)
  args : (string * arg) list;
}

val event : subsys -> string -> ?args:(string * arg) list -> unit -> unit
(** Emit a point event if the subsystem is enabled; a no-op otherwise. *)

val span_begin : subsys -> string -> ?args:(string * arg) list -> unit -> unit
val span_end : subsys -> string -> ?args:(string * arg) list -> unit -> unit
(** Unscoped span edges for spans that cross function boundaries
    (a transaction's span opens in [begin_txn] and closes in
    [commit]/[abort]).  Depth bookkeeping is global; the exporters
    reconstruct the tree from emission order. *)

val span : subsys -> string -> ?args:(string * arg) list -> (unit -> 'a) -> 'a
(** [span s name f] runs [f] between a [Span_begin] and a [Span_end]
    (the end is emitted on exception too).  When [s] is disabled this
    is just [f ()]. *)

(** {1 The trace ring} *)

module Trace : sig
  val set_capacity : int -> unit
  (** Resize (and clear) the ring.  Default 16384 events; the oldest
      events are overwritten once the ring is full. *)

  val capacity : unit -> int

  val clear : unit -> unit

  val events : unit -> event list
  (** Retained events, oldest first. *)

  val emitted : unit -> int
  (** Total events emitted since the last [clear] (≥ retained). *)

  val dropped : unit -> int
  (** Events overwritten by ring wrap-around. *)

  val to_text : ?limit:int -> unit -> string
  (** One line per event, indented by span depth.  [limit] keeps only
      the newest N events. *)

  val to_chrome_json : unit -> string
  (** Chrome [trace_event] JSON ({i chrome://tracing} /
      {i ui.perfetto.dev}): spans become complete ["X"] events with
      durations reconstructed from begin/end order, points become
      instant ["i"] events.  Timestamps are simulated µs. *)
end

(** {1 The metrics registry} *)

module Metrics : sig
  (** Counters and log-scale histograms owned by the registry, plus
      {e probes} — live read-only views onto legacy per-instance
      counters ([Bufcache.hits], [Netsim.messages]…) registered by
      their owners.  Everything is reachable by name through one
      {!snapshot}. *)

  type counter

  val counter : string -> counter
  (** Find-or-create; the same name always returns the same counter. *)

  val incr : ?by:int -> counter -> unit
  (** Allocation-free. *)

  val counter_value : counter -> int

  type histogram

  val histogram : string -> histogram
  (** Find-or-create.  Buckets are log-2 over microseconds (1 µs to
      ~36 h), so decades of latency fit in 64 slots. *)

  val observe : histogram -> float -> unit
  (** Record one value in {e seconds} (converted to µs internally). *)

  val hist_count : histogram -> int
  val hist_sum : histogram -> float

  val hist_reset : histogram -> unit
  (** Zero the buckets, count, and sum, keeping the registration.  Load
      sweeps call this between levels so each level's percentiles come
      from that level's observations alone. *)

  val percentile : histogram -> float -> float
  (** [percentile h 0.99] — approximate (bucket-resolution) quantile,
      in seconds.  0. when empty. *)

  val probe : string -> (unit -> int) -> unit
  (** Register (or replace) a live view onto an externally owned
      counter.  Owners re-register on creation, so the registry always
      reflects the most recently built instance. *)

  val read : string -> int option
  (** Current value of the counter or probe with this name. *)

  type entry =
    | Counter of int
    | Probe of int
    | Histogram of { count : int; sum : float; p50 : float; p95 : float; p99 : float }

  val snapshot : unit -> (string * entry) list
  (** Everything, sorted by name.  Probes are sampled at call time. *)

  val reset : unit -> unit
  (** Zero owned counters/histograms and drop all probes. *)
end

val reset : unit -> unit
(** [Trace.clear] + [Metrics.reset] + [disable_all] + [clear_clock]:
    the blank slate tests start from. *)
