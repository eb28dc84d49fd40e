(** Slotted-page layout for heap relations.

    A heap page holds variable-length record versions addressed by slot
    number, so a {!Tid.t} (block, slot) stays stable while the page is
    compacted.  The header is self-identifying — it stores the owning
    relation id, its own block number, and a CRC — implementing the
    corruption-detection scheme the paper reserves space for ("every block
    could be tagged with its file identifier and block number").

    Layout (offsets in bytes):
    {v
    0  magic      u16   0x4850
    2  nslots     u16
    4  free_upper u16   data area grows down from the page end to here
    6  flags      u16
    8  relid      i64
    16 blkno      u32
    20 checksum   u32   CRC-32 with this field zeroed; see seal/verify
    24 line pointers, 4 bytes each: offset u16, length u16 (0 = dead)
    v}

    Each record is stored as [oid i64, xmin u32, xmax u32, payload]. *)

type record = {
  slot : int;
  oid : int64;
  xmin : Xid.t;
  xmax : Xid.t;
  payload : bytes;
}

val header_size : int
val record_overhead : int

val max_payload : int
(** Largest payload a single record can carry: one record alone on a page
    (8148 bytes).  Inversion sizes file chunks against this. *)

val init : Pagestore.Page.t -> relid:int64 -> blkno:int -> unit
(** Format an empty page. *)

val is_initialized : Pagestore.Page.t -> bool
val relid : Pagestore.Page.t -> int64
val nslots : Pagestore.Page.t -> int

val free_space : Pagestore.Page.t -> int
(** Bytes available for one more record (its line pointer accounted). *)

val insert : Pagestore.Page.t -> oid:int64 -> xmin:Xid.t -> payload:bytes -> int option
(** Add a record, returning its slot, or [None] if it does not fit.  Dead
    slots are reused (their data space is reclaimed only by {!compact}). *)

val read_record : Pagestore.Page.t -> slot:int -> record option
(** [None] if the slot is dead or out of range. *)

val set_xmax : Pagestore.Page.t -> slot:int -> Xid.t -> unit
(** Stamp the deleting transaction.  Raises [Invalid_argument] on a dead
    slot. *)

val kill_slot : Pagestore.Page.t -> slot:int -> unit
(** Vacuum only: mark the slot dead.  The TID is never reused for a
    different record (slot stays allocated), so stale index entries cannot
    alias a new record. *)

val iter :
  ?oid:int64 ->
  ?keep:(xmin:Xid.t -> xmax:Xid.t -> bool) ->
  Pagestore.Page.t ->
  (record -> unit) ->
  unit
(** All live (non-dead-slot) records in slot order, regardless of
    visibility.  With [oid], only that oid's records; with [keep], only
    those whose stamps it accepts.  Both are judged on the record header,
    so a skipped record's payload is never copied out. *)

val compact : Pagestore.Page.t -> unit
(** Slide live records together to reclaim dead data space.  Slot numbers
    (hence TIDs) are preserved. *)

val seal : Pagestore.Page.t -> unit
(** Recompute and store the checksum. *)

val is_all_zero : Pagestore.Page.t -> bool
(** An allocated-but-never-written page (e.g. from a transaction that
    crashed before committing its relation's first flush). *)

val verify : Pagestore.Page.t -> expect_relid:int64 -> expect_blkno:int -> (unit, string) result
(** Self-identification check: magic, relid, blkno and checksum all match.
    All-zero pages pass — they are unused space, not corruption. *)
