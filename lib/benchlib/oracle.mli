(** The differential oracle shared by the fault harnesses
    ({!Crashtest}, {!Vacuumtest}, {!Nettest}, {!Shardtest}; {!Loadtest}
    keeps its own model and uses the bookkeeping, probes and helpers).

    A pure in-memory model tracks the committed state the real system
    must equal while a seeded workload runs against it, with each
    session's open transaction buffered in an overlay until its commit
    returns.  The op generator drives the real system through a small
    {!driver} record (a local {!Invfs.Fs.session}, a {!Remote.Client.t},
    or a fleet connection); every mutating op registers its intended
    updates and a durable {!probe} first, so a harness can settle an
    indeterminate outcome by reading the committed state [As_of] now.
    Probes and verifies read a file's bytes through a {!reader}: the
    file system itself, or the fleet's shard copies.  See DESIGN.md,
    "Differential oracle". *)

module SM : Map.S with type key = string
module OM : Map.S with type key = int64

(** {1 Model and bookkeeping} *)

type t = {
  rng : Simclock.Rng.t;  (** the run's seeded stream; every draw comes from it *)
  tracing : bool;  (** {!trace} prints to stderr *)
  mutable next_name : int;
  mutable next_oid : int64;  (** identity tokens minted by {!fresh_oid} *)
  mutable mismatches : string list;  (** newest first; see {!mismatches} *)
  mutable names : int64 SM.t;  (** committed path -> oid *)
  mutable files : bytes OM.t;  (** oid -> committed contents *)
  mutable dirs : unit SM.t;  (** committed directories, including ["/"] *)
  mutable history : (int64 * bytes SM.t * string list) list;
      (** remembered instants, newest first: timestamp, materialized
          file contents by path, directories *)
  mutable ops_attempted : int;
  mutable ops_applied : int;
  mutable commits : int;
  mutable aborts : int;
  mutable lock_skips : int;
  mutable io_faults : int;
  mutable crashes : int;  (** local crash-and-recover cycles ({!crash_local}) *)
  mutable injected_crashes : int;  (** ...of which the fault plan fired mid-op *)
  mutable time_travel_checks : int;
  mutable full_verifies : int;
  mutable indeterminate : int;  (** ambiguous outcomes resolved by probe *)
  mutable landed : int;  (** ...of which the probe said "it committed" *)
}

val create : rng:Simclock.Rng.t -> trace:bool -> t
(** An empty model (only ["/"] exists) with zeroed tallies. *)

val trace : t -> ('a, unit, string, unit) format4 -> 'a
val mismatch : t -> ('a, unit, string, unit) format4 -> 'a
(** Log a mismatch; the log keeps the first 50. *)

val mismatches : t -> string list
(** The log, oldest first. *)

val fresh_name : t -> string -> string
(** [fresh_name o "f"] is ["f0"], then ["f1"], ... *)

val fresh_oid : t -> int64
val join : string -> string -> string

val pick : t -> 'a list -> 'a
(** Uniform draw from a non-empty list. *)

val bytes_diff : bytes -> bytes -> string option
(** [None] when equal, else the lengths and the first differing byte. *)

val splice : bytes -> off:int -> bytes -> bytes
(** [splice cur ~off data]: [cur] with [data] written at [off]
    (zero-filling any gap); [cur] is not mutated. *)

val resize : bytes -> int -> bytes
(** Cut or zero-extend to a length, as [ftruncate] does. *)

type updates = {
  u_names : (string * int64 option) list;  (** in order; [None] = unlinked *)
  u_files : (int64 * bytes) list;  (** new contents per oid *)
  u_dirs : string list;
}

val no_updates : updates

val commit_updates : t -> updates -> unit
(** Merge into the committed model.  Content of an oid no path names
    afterwards is dropped. *)

val take_snapshot : t -> depth:int -> int64 -> unit
(** Remember the committed state as of the given instant, keeping the
    newest [depth].  The caller makes sure no later commit shares it. *)

(** {1 Durable probes} *)

type probe = { describe : string; check : Invfs.Fs.session -> int64 -> bool }
(** [check s ts] reads the committed state [As_of ts] (no locks). *)

type reader = Invfs.Fs.session -> ?timestamp:int64 -> string -> bytes
(** A file's committed bytes by path, read through a local session of
    the file system that holds the namespace.  {!Invfs.Fs.read_whole_file}
    is the local and client harnesses' reader; {!cluster_reader} the
    fleet's. *)

val probe_exists : string -> probe
val probe_absent : string -> probe

val probe_of_updates : t -> read:reader -> updates -> probe
(** The first update that would change the committed model decides;
    if none would, "landed" is vacuously true. *)

val landed : Invfs.Fs.t -> probe -> bool
(** Run a probe through a fresh session, [As_of] now. *)

(** {1 Sessions and overlays} *)

type 'h sess = {
  id : int;
  mutable h : 'h;  (** the real handle: a local session, a client or a fleet connection *)
  mutable in_txn : bool;
  mutable ov_names : int64 option SM.t;  (** [None] = unlinked in this txn *)
  mutable ov_files : bytes OM.t;
  mutable ov_dirs : string list;
  mutable pending : (updates * probe) option;
      (** what the op in flight intends to change, set before its
          mutating call *)
}

val sess : int -> 'h -> 'h sess
val clear_overlay : 'h sess -> unit

val overlay_updates : 'h sess -> updates
(** The open transaction's updates, as its commit would apply them. *)

val record : t -> 'h sess -> updates -> unit
(** An op's updates: into the overlay inside a transaction, else
    committed. *)

(** {1 Drivers and the op generator} *)

type 'h driver = {
  creat : 'h -> string -> unit;  (** create and close *)
  mkdir : 'h -> string -> unit;
  open_rw : 'h -> string -> int;
  seek : 'h -> int -> int -> unit;
  write : 'h -> int -> bytes -> unit;
  ftruncate : 'h -> int -> int -> unit;
  close : 'h -> int -> unit;
  unlink : 'h -> string -> unit;
  rename : 'h -> string -> string -> unit;
  read_whole : 'h -> string -> bytes;
  begin_txn : 'h -> unit;
  commit : 'h -> unit;
  abort : 'h -> unit;
}

val local_driver : Invfs.Fs.session driver
val client_driver : Remote.Client.t driver

type cluster_conn = { conn : Remote.Cluster.conn; mutable pos : int }
(** A fleet client for {!cluster_driver}.  [pos] is the offset the next
    data call addresses. *)

val cluster_driver : cluster_conn driver
(** Metadata calls go to {!Remote.Cluster.coord}.  [open_rw] and
    [read_whole] turn the path into the real oid the coordinator holds
    (a stat); [open_rw] returns that oid as the fd, and [write],
    [ftruncate] and [read_whole] call the [Cluster.shard_*] data plane
    with it.  [close] does nothing. *)

val cluster_reader : Remote.Cluster.t -> reader
(** Stat on the coordinator's file system, then
    {!Remote.Cluster.peek_data} of that oid.  The chunk data is read as
    of now whatever the timestamp: right for probes and verifies, not
    for time travel. *)

type 'h workload = {
  driver : 'h driver;
  read : reader;  (** how probes and verifies read committed bytes *)
  sessions : 'h sess array;
  max_file_bytes : int;  (** writes past this only overwrite *)
  max_dirs : int;  (** mkdir turns into create at this many *)
  write_segments : bool;  (** in-txn writes issue 1-3 sequential writes *)
  truncate_growth : int;  (** how far a truncate may extend a file *)
  mix_in_txn : (int * 'h op) list;
      (** cumulative weights out of 100, for a session in a transaction *)
  mix_outside : (int * 'h op) list;
}

and 'h op = t -> 'h workload -> 'h sess -> updates
(** Runs against the real system and returns the op's updates; raises
    what the real call raised. *)

val op_create : 'h op
val op_mkdir : 'h op
val op_write : 'h op
val op_truncate : 'h op
val op_unlink : 'h op
val op_rename : 'h op
val op_read_check : 'h op
val op_begin : 'h op
val op_commit : 'h op
val op_abort : 'h op

val standard_mix_in_txn : (int * 'h op) list
val standard_mix_outside : (int * 'h op) list

val pick_dir : t -> 'h sess -> string
(** A directory the session sees. *)

val next_op : t -> 'h workload -> 'h sess * 'h op
(** Draw a session, then an op from its mix. *)

val abort_txn : t -> 'h workload -> 'h sess -> unit
(** Abort the session's open transaction, if any (a failing abort is
    ignored: the transaction died already), and drop its overlay. *)

(** {1 Verification} *)

val walk_real : read:reader -> Invfs.Fs.session -> bytes SM.t * unit SM.t
(** The real tree: every file with its contents, every directory.
    Dot-names are skipped (the fleet keeps its placement map in one). *)

val verify_full_state : t -> read:reader -> Invfs.Fs.session -> phase:string -> unit
(** Compare the real tree, walked through the session, with the
    committed model: directories, file names and contents. *)

val check_time_travel : t -> Invfs.Fs.session -> unit
(** Read every remembered instant back [As_of] its timestamp: each
    file's contents, and each directory's existence and listing. *)

(** {1 Local harnesses} *)

val crash_local :
  t -> Invfs.Fs.t -> Faultsim.t -> Invfs.Fs.session sess array -> injected:bool ->
  Invfs.Recovery.report
(** Count the crash, clear the fault schedule, crash and recover the
    file system, give every session a fresh handle and an empty overlay,
    then {!verify_full_state} and {!check_time_travel} through session
    0. *)

val local_step : t -> Invfs.Fs.session workload -> crash:(unit -> unit) -> unit
(** Run one generated op and classify its failure: an injected crash
    calls [crash]; I/O faults, lock conflicts and commit-time unlink
    races abort the session's transaction; anything else is a
    mismatch. *)

(** {1 Remote harnesses} *)

type 'h remote = {
  w : 'h workload;
  committed : Invfs.Fs.t;  (** holds the namespace; probes and verifies read it *)
  refusals : Invfs.Errors.code list;
      (** codes that mean "not executed", beyond lock conflicts and
          timeouts ([EAGAIN], [EDEADLK], [ETIMEDOUT]) *)
  mutable current : 'h sess option;  (** the session whose op is executing *)
  mutable in_flight : bool;  (** an op's RPC is executing right now *)
  mutable verify_pending : bool;  (** a mid-op crash deferred its verify *)
}

val remote : 'h workload -> committed:Invfs.Fs.t -> refusals:Invfs.Errors.code list -> 'h remote

val verify_remote : t -> 'h remote -> phase:string -> unit
(** {!verify_full_state} and {!check_time_travel} through fresh sessions
    of [committed]. *)

val remote_crashed : t -> 'h remote -> unit
(** Call after a crash's recovery: {!verify_remote} now, or, while an
    op is in flight (its effect may have committed without reaching the
    model), right after that op settles. *)

val remote_step : t -> 'h remote -> unit
(** Run one generated op and classify its failure: an ambiguous session
    loss is settled by probe; a clean one drops the overlay; lock
    conflicts, timeouts, the [refusals] and I/O faults are skips (the
    transaction aborts); an unlink race aborts; anything else is a
    mismatch. *)
