(** Two-phase lock manager.

    "A standard database two-phase locking protocol [GRAY76] allows
    concurrent access to files while preventing simultaneous changes from
    interfering with one another" (paper, "Transaction Protection").  Locks
    are held until the owning transaction commits or aborts, and
    conflicts are detected against a wait-for graph.  A resource is an
    opaque string: a relation (one Inversion file = one relation), a row
    of a row-locked catalog, or a name the file-system layer guards.

    Modes: [Shared] (S) and [Exclusive] (X) as usual, plus
    [Intent_exclusive] (IX), which a row writer takes on the relation
    before X on the row.  IX is compatible with IX and conflicts with S
    and X, so row writers coexist while a whole-relation reader or
    writer (the vacuum's S guard, say) excludes them all.

    The engine is a single-threaded simulation, so a conflicting request
    cannot literally sleep: it raises {!Would_block} and records a wait-for
    edge.  If the edge completes a cycle the request raises {!Deadlock}
    instead, naming a victim (the requester).  Callers — concurrency tests
    and the file-system layer — retry after the holder releases. *)

type mode = Shared | Intent_exclusive | Exclusive

val mode_to_string : mode -> string

exception Would_block of { xid : Xid.t; resource : string; holders : Xid.t list }
(** The request conflicts with locks held by [holders]. *)

exception Deadlock of Xid.t
(** Granting the wait would close a cycle; the named xid should abort. *)

type t

val create : unit -> t

val acquire : t -> Xid.t -> resource:string -> mode -> unit
(** Grant the lock or raise {!Would_block} / {!Deadlock}.  Re-acquiring a
    held lock (or a weaker one: X covers everything) is a no-op.  A
    holder asking for more is upgraded: S → X, IX → X, and S + IX or
    IX + S → X, each succeeding when no other holder conflicts with the
    upgraded mode.

    {b Writer fairness (no barging).}  A blocked request is remembered as
    a waiter on its resource until it acquires, or its transaction ends.
    While another transaction has a pending IX or X wait on a resource,
    fresh Shared requests from non-holders block behind it
    (the pending writers are reported as the [holders] of the
    {!Would_block}) — so a steady stream of readers cannot starve a
    writer.  Holders re-acquiring or upgrading are exempt. *)

val try_acquire : t -> Xid.t -> resource:string -> mode -> bool
(** Like {!acquire} but returns [false] instead of raising
    {!Would_block}.  Still raises {!Deadlock}. *)

val release_all : t -> Xid.t -> unit
(** Strict two-phase release: drop every lock and wait-for edge of a
    transaction (called at commit/abort). *)

val holders : t -> resource:string -> (Xid.t * mode) list
(** Current holders of a resource (empty if unlocked). *)

val held_by : t -> Xid.t -> (string * mode) list
(** All locks a transaction holds, sorted by resource. *)

val holds_exclusive : t -> Xid.t -> bool
(** Does the transaction hold any IX or X lock, that is, may it have
    written? *)

val waiting : t -> Xid.t -> Xid.t list
(** Transactions [xid] is currently recorded as waiting for. *)

val wait_queue_length : t -> int
(** Number of transactions currently recorded as blocked (the size of
    the wait-for table).  Also exported as the Obs probe
    ["lock.wait_queue"] by {!create} (last-created manager wins). *)

val release_generation : t -> int
(** Monotone counter bumped by every {!release_all}.  In a
    single-threaded simulation a blocked request can only have been
    unblocked by some transaction releasing, so a parked request need
    only re-try its acquisition when this has advanced — the remote
    server's event loop gates parked-request resumption on it. *)

val reset : t -> unit
(** Drop every lock and wait-for edge.  Locks are volatile state: crash
    recovery calls this. *)
