(* The differential oracle shared by the fault harnesses.

   A pure in-memory model tracks what the file system's *committed* state
   must be while the real Invfs.Fs (locally or through Remote.Client) runs
   the same randomized workload in lockstep.  The harnesses differ only in
   their fault model and run loop; the model, the op generator, the
   durable probes and the full and time-travel verifies live here once.

   Modelled commit semantics (mirrors fs.ml):
   - outside an explicit transaction every mutating call is its own
     transaction, so an op either lands fully or not at all;
   - inside a transaction all of a session's mutations are buffered in a
     per-session overlay and merged into the model only when the commit
     returns normally;
   - a crash, I/O error, lock conflict or commit-time Not_found aborts
     the transaction: the overlay is dropped;
   - cross-session reads see latest-committed (Snapshot.Current), which
     is exactly the model's committed map.

   The model is oid-keyed: [names] binds paths to file identities and
   [files] holds content per identity.  The split matters even without
   hard links — a transaction that renames a file holds only directory
   locks, so another session can keep addressing the same file through
   its committed name and commit writes to it; a path-keyed model would
   freeze the renamed file's content at rename time and diverge.  The
   oids are minted here (identity tokens), never read back from the file
   system.  A harness reads a file's committed bytes through a [reader]:
   the local and client harnesses read the file system itself, the fleet
   reads the chunk data its shards hold. *)

module SM = Map.Make (String)
module OM = Map.Make (Int64)
module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Recovery = Invfs.Recovery
module Device = Pagestore.Device
module Client = Remote.Client
module Cluster = Remote.Cluster

type t = {
  rng : Rng.t;
  tracing : bool;
  mutable next_name : int;
  mutable next_oid : int64;
  mutable mismatches : string list; (* newest first *)
  mutable names : int64 SM.t; (* path -> oid *)
  mutable files : bytes OM.t; (* oid -> committed contents *)
  mutable dirs : unit SM.t; (* directory paths, including "/" *)
  mutable history : (int64 * bytes SM.t * string list) list; (* newest first *)
  mutable ops_attempted : int;
  mutable ops_applied : int;
  mutable commits : int;
  mutable aborts : int;
  mutable lock_skips : int;
  mutable io_faults : int;
  mutable crashes : int;
  mutable injected_crashes : int;
  mutable time_travel_checks : int;
  mutable full_verifies : int;
  mutable indeterminate : int;
  mutable landed : int;
}

let create ~rng ~trace =
  {
    rng;
    tracing = trace;
    next_name = 0;
    next_oid = 1L;
    mismatches = [];
    names = SM.empty;
    files = OM.empty;
    dirs = SM.add "/" () SM.empty;
    history = [];
    ops_attempted = 0;
    ops_applied = 0;
    commits = 0;
    aborts = 0;
    lock_skips = 0;
    io_faults = 0;
    crashes = 0;
    injected_crashes = 0;
    time_travel_checks = 0;
    full_verifies = 0;
    indeterminate = 0;
    landed = 0;
  }

(* ---------- log and small helpers ---------- *)

let max_mismatches = 50

let trace o fmt =
  Printf.ksprintf (fun msg -> if o.tracing then Printf.eprintf "%s\n%!" msg) fmt

let mismatch o fmt =
  Printf.ksprintf
    (fun msg ->
      if List.length o.mismatches < max_mismatches then o.mismatches <- msg :: o.mismatches)
    fmt

let mismatches o = List.rev o.mismatches

let fresh_name o prefix =
  let n = o.next_name in
  o.next_name <- n + 1;
  Printf.sprintf "%s%d" prefix n

let fresh_oid o =
  let oid = o.next_oid in
  o.next_oid <- Int64.add oid 1L;
  oid

let join dir name = if dir = "/" then "/" ^ name else dir ^ "/" ^ name

let pick o = function
  | [] -> invalid_arg "Oracle.pick: empty"
  | l -> List.nth l (Rng.int o.rng (List.length l))

let bytes_diff a b =
  if Bytes.equal a b then None
  else begin
    let la = Bytes.length a and lb = Bytes.length b in
    let n = min la lb in
    let i = ref 0 in
    while !i < n && Bytes.get a !i = Bytes.get b !i do
      incr i
    done;
    Some (Printf.sprintf "lengths %d vs %d, first difference at byte %d" la lb !i)
  end

(* splice [data] into [cur] at [off]; [cur] is not mutated *)
let splice cur ~off data =
  let len = Bytes.length cur and dlen = Bytes.length data in
  let out = Bytes.make (max len (off + dlen)) '\000' in
  Bytes.blit cur 0 out 0 len;
  Bytes.blit data 0 out off dlen;
  out

(* [cur] cut or zero-extended to [len] bytes, as ftruncate leaves it *)
let resize cur len =
  if len <= Bytes.length cur then Bytes.sub cur 0 len
  else begin
    let out = Bytes.make len '\000' in
    Bytes.blit cur 0 out 0 (Bytes.length cur);
    out
  end

let indeterminate_of_msg msg =
  (* the client names the one genuinely ambiguous case explicitly *)
  let needle = "indeterminate" in
  let n = String.length needle and l = String.length msg in
  let rec scan i = i + n <= l && (String.sub msg i n = needle || scan (i + 1)) in
  scan 0

(* ---------- the model ---------- *)

(* Updates produced by one op (or accumulated by one transaction).
   [u_names] apply in order; content updates apply to oids that remain
   named afterwards; unnamed oids are dropped (their data is only
   reachable by time travel, which the history snapshots cover). *)
type updates = {
  u_names : (string * int64 option) list; (* None = unlinked *)
  u_files : (int64 * bytes) list;
  u_dirs : string list;
}

let no_updates = { u_names = []; u_files = []; u_dirs = [] }

let commit_updates o u =
  List.iter
    (fun (path, v) ->
      match v with
      | Some oid -> o.names <- SM.add path oid o.names
      | None -> o.names <- SM.remove path o.names)
    u.u_names;
  let named = SM.fold (fun _ oid acc -> OM.add oid () acc) o.names OM.empty in
  List.iter
    (fun (oid, data) -> if OM.mem oid named then o.files <- OM.add oid data o.files)
    u.u_files;
  o.files <- OM.filter (fun oid _ -> OM.mem oid named) o.files;
  List.iter (fun d -> o.dirs <- SM.add d () o.dirs) u.u_dirs

let dir_list o = List.map fst (SM.bindings o.dirs)

(* Remember the committed state at instant [ts] for later time-travel
   checks, keeping the newest [depth] instants.  The caller makes sure no
   later commit shares [ts] (As_of visibility uses <=). *)
let take_snapshot o ~depth ts =
  let materialized =
    SM.map
      (fun oid ->
        match OM.find_opt oid o.files with Some b -> Bytes.copy b | None -> Bytes.create 0)
      o.names
  in
  o.history <- List.filteri (fun i _ -> i < depth) ((ts, materialized, dir_list o) :: o.history)

(* ---------- durable probes ----------

   A probe answers "did this op's effects commit?" by reading the
   committed state As_of now through a fresh local session.  Historical
   reads take no locks (other clients may be mid-transaction) and see
   only committed data, which is exactly the question. *)

type probe = { describe : string; check : Fs.session -> int64 -> bool }

(* A file's committed bytes, read through a local session. *)
type reader = Fs.session -> ?timestamp:int64 -> string -> bytes

let probe_content (read : reader) path expect =
  {
    describe = Printf.sprintf "content of %s" path;
    check =
      (fun s ts ->
        match read s ~timestamp:ts path with
        | real -> Bytes.equal real expect
        | exception Errors.Fs_error _ -> false);
  }

let probe_exists path =
  {
    describe = Printf.sprintf "existence of %s" path;
    check = (fun s ts -> Fs.exists s ~timestamp:ts path);
  }

let probe_absent path =
  {
    describe = Printf.sprintf "absence of %s" path;
    check = (fun s ts -> not (Fs.exists s ~timestamp:ts path));
  }

let probe_always = { describe = "(no observable difference)"; check = (fun _ _ -> true) }

(* The first update whose committed-vs-new state differs decides the
   probe; if nothing distinguishes, landing and aborting produce the same
   state and "landed" is vacuously true.  Name changes probe first (a
   created or vacated path is the crispest signal); content updates need
   a path that would name the oid after the commit. *)
let probe_of_updates o ~read u =
  let tombstoned p = List.exists (fun (q, v) -> q = p && v = None) u.u_names in
  let path_of_oid oid =
    match List.find_opt (fun (_, v) -> v = Some oid) u.u_names with
    | Some (p, _) -> Some p
    | None ->
      SM.fold
        (fun p oid' acc -> if acc = None && oid' = oid && not (tombstoned p) then Some p else acc)
        o.names None
  in
  let rec files = function
    | [] -> ( match u.u_dirs with [] -> probe_always | d :: _ -> probe_exists d)
    | (oid, b) :: rest -> (
      match path_of_oid oid with
      | None -> files rest
      | Some path -> (
        match OM.find_opt oid o.files with
        | Some cur when Bytes.equal b cur -> files rest
        | _ -> probe_content read path b))
  in
  let rec names = function
    | [] -> files u.u_files
    | (path, Some _) :: rest -> if SM.mem path o.names then names rest else probe_exists path
    | (path, None) :: rest -> if SM.mem path o.names then probe_absent path else names rest
  in
  names u.u_names

let landed fs probe = probe.check (Fs.new_session fs) (Relstore.Db.now (Fs.db fs))

(* ---------- sessions and overlays ---------- *)

type 'h sess = {
  id : int;
  mutable h : 'h; (* the harness's handle: a local session, a client or a fleet connection *)
  mutable in_txn : bool;
  mutable ov_names : int64 option SM.t; (* None = unlinked in this txn *)
  mutable ov_files : bytes OM.t;
  mutable ov_dirs : string list;
  (* what the op in flight intends to change, registered before its
     mutating call: an indeterminate session loss probes it *)
  mutable pending : (updates * probe) option;
}

let sess id h =
  { id; h; in_txn = false; ov_names = SM.empty; ov_files = OM.empty; ov_dirs = []; pending = None }

let clear_overlay ss =
  ss.in_txn <- false;
  ss.ov_names <- SM.empty;
  ss.ov_files <- OM.empty;
  ss.ov_dirs <- []

let overlay_updates ss =
  {
    u_names = SM.bindings ss.ov_names;
    u_files = OM.bindings ss.ov_files;
    u_dirs = List.rev ss.ov_dirs;
  }

let record o ss u =
  if ss.in_txn then begin
    List.iter (fun (p, v) -> ss.ov_names <- SM.add p v ss.ov_names) u.u_names;
    List.iter (fun (oid, b) -> ss.ov_files <- OM.add oid b ss.ov_files) u.u_files;
    List.iter (fun d -> ss.ov_dirs <- d :: ss.ov_dirs) u.u_dirs
  end
  else commit_updates o u

(* What this session currently sees: committed state overlaid with its
   own uncommitted transaction.  Content falls through to the committed
   cell when the transaction has not written the oid itself — a rename
   picks up concurrent committed writes to the file it moved. *)
let view_names o ss =
  SM.fold
    (fun path v acc -> match v with Some oid -> SM.add path oid acc | None -> SM.remove path acc)
    ss.ov_names o.names

let view_content o ss oid =
  match OM.find_opt oid ss.ov_files with
  | Some b -> b
  | None -> Option.value ~default:(Bytes.create 0) (OM.find_opt oid o.files)

let view_dirs o ss = List.rev_append ss.ov_dirs (dir_list o) |> List.sort_uniq String.compare

(* Settle a session's ambiguous outcome: probe its pending op, commit the
   op's updates if they landed, and count its transaction as committed or
   aborted. *)
let resolve_indeterminate o fs ss =
  o.indeterminate <- o.indeterminate + 1;
  match ss.pending with
  | None -> mismatch o "s%d: indeterminate outcome but no pending op to probe" ss.id
  | Some (u, probe) ->
    o.time_travel_checks <- o.time_travel_checks + 1;
    let l = landed fs probe in
    trace o "s%d .. probe of %s: %s" ss.id probe.describe (if l then "LANDED" else "did not land");
    if l then begin
      o.landed <- o.landed + 1;
      commit_updates o u
    end;
    match (ss.in_txn, l) with
    | true, true -> o.commits <- o.commits + 1
    | true, false -> o.aborts <- o.aborts + 1
    | false, _ -> ()

(* ---------- drivers ---------- *)

type 'h driver = {
  creat : 'h -> string -> unit; (* create and close *)
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

let local_driver =
  {
    creat = (fun s path -> Fs.p_close s (Fs.p_creat s path));
    mkdir = (fun s path -> Fs.mkdir s path);
    open_rw = (fun s path -> Fs.p_open s path Fs.Rdwr);
    seek = (fun s fd off -> ignore (Fs.p_lseek s fd (Int64.of_int off) Fs.Seek_set : int64));
    write = (fun s fd b -> ignore (Fs.p_write s fd b (Bytes.length b) : int));
    ftruncate = (fun s fd len -> Fs.ftruncate s fd (Int64.of_int len));
    close = Fs.p_close;
    unlink = Fs.unlink;
    rename = Fs.rename;
    read_whole = (fun s path -> Fs.read_whole_file s path);
    begin_txn = Fs.p_begin;
    commit = Fs.p_commit;
    abort = Fs.p_abort;
  }

let client_driver =
  {
    creat = (fun c path -> Client.c_close c (Client.c_creat c path));
    mkdir = Client.c_mkdir;
    open_rw = (fun c path -> Client.c_open c path Fs.Rdwr);
    seek = (fun c fd off -> ignore (Client.c_lseek c fd (Int64.of_int off) Fs.Seek_set : int64));
    write = (fun c fd b -> ignore (Client.c_write c fd b (Bytes.length b) : int));
    ftruncate = (fun c fd len -> Client.c_ftruncate c fd (Int64.of_int len));
    close = Client.c_close;
    unlink = Client.c_unlink;
    rename = Client.c_rename;
    read_whole = (fun c path -> Client.read_whole_file c path);
    begin_txn = Client.c_begin;
    commit = Client.c_commit;
    abort = Client.c_abort;
  }

(* A fleet client.  Metadata goes to the coordinator.  Data has no fds:
   [open_rw] returns the real oid the coordinator holds for the path as
   the "fd", and [pos] keeps the offset the data calls address. *)
type cluster_conn = { conn : Cluster.conn; mutable pos : int }

let cluster_driver =
  let coord f h = f (Cluster.coord h.conn) and c = client_driver in
  let oid_of h path = (Client.c_stat (Cluster.coord h.conn) path).Invfs.Fileatt.file in
  let span = 65536 in
  {
    creat = coord c.creat;
    mkdir = coord c.mkdir;
    open_rw =
      (fun h path ->
        h.pos <- 0;
        Int64.to_int (oid_of h path));
    seek = (fun h _ off -> h.pos <- off);
    write =
      (fun h fd b ->
        let data = Bytes.to_string b in
        let off = Int64.of_int h.pos in
        h.pos <- h.pos + Cluster.shard_write h.conn ~oid:(Int64.of_int fd) ~off ~data);
    ftruncate =
      (fun h fd len ->
        Cluster.shard_truncate h.conn ~oid:(Int64.of_int fd) ~size:(Int64.of_int len));
    close = (fun _ _ -> ());
    unlink = coord c.unlink;
    rename = coord c.rename;
    read_whole =
      (fun h path ->
        let oid = oid_of h path and buf = Buffer.create span in
        let rec go () =
          let off = Int64.of_int (Buffer.length buf) in
          let got = Cluster.shard_read h.conn ~oid ~off ~len:span in
          Buffer.add_string buf got;
          if String.length got = span then go ()
        in
        go ();
        Buffer.to_bytes buf);
    begin_txn = coord c.begin_txn;
    commit = coord c.commit;
    abort = coord c.abort;
  }

(* The fleet's committed bytes: the path's real oid from the namespace,
   then the authoritative shard copy.  The chunk data is read as of now
   whatever the timestamp, which suits probes and verifies but not time
   travel. *)
let cluster_reader cluster s ?timestamp path =
  let oid = (Fs.stat s ?timestamp path).Invfs.Fileatt.file in
  Bytes.of_string (Cluster.peek_data cluster ~oid)

(* ---------- the op generator ---------- *)

type 'h workload = {
  driver : 'h driver;
  read : reader; (* how probes and verifies read committed bytes *)
  sessions : 'h sess array;
  max_file_bytes : int;
  max_dirs : int;
  write_segments : bool; (* in-txn writes issue 1-3 sequential p_writes *)
  truncate_growth : int; (* bytes a truncate may extend a file by *)
  mix_in_txn : (int * 'h op) list; (* cumulative weights out of 100 *)
  mix_outside : (int * 'h op) list;
}

and 'h op = t -> 'h workload -> 'h sess -> updates

(* Register what the op is about to change, before its mutating call. *)
let intend ss u probe = ss.pending <- Some (u, probe)

let pick_dir o ss = pick o (view_dirs o ss)

let pick_file o ss =
  match SM.bindings (view_names o ss) with [] -> None | files -> Some (pick o files)

let op_create o w ss =
  let path = join (pick_dir o ss) (fresh_name o "f") in
  let oid = fresh_oid o in
  trace o "s%d creat %s -> oid %Ld" ss.id path oid;
  let u = { no_updates with u_names = [ (path, Some oid) ]; u_files = [ (oid, Bytes.create 0) ] } in
  intend ss u (probe_exists path);
  w.driver.creat ss.h path;
  u

let op_mkdir o w ss =
  if List.length (view_dirs o ss) >= w.max_dirs then op_create o w ss
  else begin
    let path = join (pick_dir o ss) (fresh_name o "d") in
    trace o "s%d mkdir %s" ss.id path;
    let u = { no_updates with u_dirs = [ path ] } in
    intend ss u (probe_exists path);
    w.driver.mkdir ss.h path;
    u
  end

let op_write o w ss =
  match pick_file o ss with
  | None -> op_create o w ss
  | Some (path, oid) ->
    let cur = view_content o ss oid in
    let len = Bytes.length cur in
    (* Inside a transaction, several sequential p_writes exercise the
       write-coalescing path; outside, one p_write is one transaction so
       the op stays atomic (a single large write still spans chunks). *)
    let nseg = if w.write_segments && ss.in_txn then 1 + Rng.int o.rng 3 else 1 in
    let segs = List.init nseg (fun _ -> Rng.bytes o.rng (1 + Rng.int o.rng 6800)) in
    let total = List.fold_left (fun a s -> a + Bytes.length s) 0 segs in
    let off =
      if len + total > w.max_file_bytes then
        (* overwrite-only: stay inside the existing extent *)
        if len - total <= 0 then 0 else Rng.int o.rng (len - total + 1)
      else Rng.int o.rng (len + 1)
    in
    trace o "s%d write %s (oid %Ld) off=%d total=%d nseg=%d cur_len=%d" ss.id path oid off
      total nseg len;
    let after = splice cur ~off (Bytes.concat Bytes.empty segs) in
    let u = { no_updates with u_files = [ (oid, after) ] } in
    let d = w.driver in
    let fd = d.open_rw ss.h path in
    d.seek ss.h fd off;
    intend ss u (probe_content w.read path after);
    List.iter (d.write ss.h fd) segs;
    d.close ss.h fd;
    u

let op_truncate o w ss =
  match pick_file o ss with
  | None -> op_create o w ss
  | Some (path, oid) ->
    let cur = view_content o ss oid in
    let len = Bytes.length cur in
    let new_len = Rng.int o.rng (min (len + w.truncate_growth) w.max_file_bytes + 1) in
    trace o "s%d trunc %s (oid %Ld) %d -> %d" ss.id path oid len new_len;
    let after = resize cur new_len in
    let u = { no_updates with u_files = [ (oid, after) ] } in
    let d = w.driver in
    let fd = d.open_rw ss.h path in
    intend ss u (probe_content w.read path after);
    d.ftruncate ss.h fd new_len;
    d.close ss.h fd;
    u

let op_unlink o w ss =
  match pick_file o ss with
  | None -> op_create o w ss
  | Some (path, _oid) ->
    trace o "s%d unlink %s" ss.id path;
    let u = { no_updates with u_names = [ (path, None) ] } in
    intend ss u (probe_absent path);
    w.driver.unlink ss.h path;
    u

let op_rename o w ss =
  match pick_file o ss with
  | None -> op_create o w ss
  | Some (path, oid) ->
    let dst = join (pick_dir o ss) (fresh_name o "r") in
    trace o "s%d rename %s -> %s (oid %Ld)" ss.id path dst oid;
    let u = { no_updates with u_names = [ (path, None); (dst, Some oid) ] } in
    intend ss u (probe_exists dst);
    w.driver.rename ss.h path dst;
    u

let op_read_check o w ss =
  (match pick_file o ss with
  | None -> ()
  | Some (path, oid) -> (
    trace o "s%d read %s (oid %Ld)" ss.id path oid;
    let real = w.driver.read_whole ss.h path in
    match bytes_diff (view_content o ss oid) real with
    | None -> ()
    | Some d -> mismatch o "read %s diverged mid-run: %s" path d));
  no_updates

let op_begin o w ss =
  trace o "s%d begin" ss.id;
  w.driver.begin_txn ss.h;
  ss.in_txn <- true;
  no_updates

let op_commit o w ss =
  trace o "s%d commit" ss.id;
  let u = overlay_updates ss in
  intend ss u (probe_of_updates o ~read:w.read u);
  w.driver.commit ss.h;
  (* merge only after the commit returned: if it raised, nothing lands *)
  commit_updates o u;
  clear_overlay ss;
  o.commits <- o.commits + 1;
  no_updates

let op_abort o w ss =
  trace o "s%d abort" ss.id;
  w.driver.abort ss.h;
  clear_overlay ss;
  o.aborts <- o.aborts + 1;
  no_updates

(* The mix the crash and network harnesses run.  In-transaction sessions
   must eventually commit or abort; sessions outside a transaction
   sometimes begin one. *)
let standard_mix_in_txn =
  [
    (30, op_write); (40, op_create); (48, op_truncate); (54, op_unlink); (60, op_rename);
    (72, op_read_check); (90, op_commit); (100, op_abort);
  ]

let standard_mix_outside =
  [
    (28, op_write); (40, op_create); (46, op_mkdir); (54, op_truncate); (62, op_unlink);
    (70, op_rename); (88, op_read_check); (100, op_begin);
  ]

(* Draw a session, then an op for it, from the workload's weights. *)
let next_op o w =
  let ss = w.sessions.(Rng.int o.rng (Array.length w.sessions)) in
  let r = Rng.int o.rng 100 in
  let mix = if ss.in_txn then w.mix_in_txn else w.mix_outside in
  (ss, snd (List.find (fun (lim, _) -> r < lim) mix))

(* A failing abort means the transaction (or the session) already died. *)
let abort_txn o w ss =
  if ss.in_txn then begin
    (try w.driver.abort ss.h with _ -> ());
    o.aborts <- o.aborts + 1
  end;
  clear_overlay ss

(* ---------- verification ---------- *)

(* Recursively walk the real tree through [s] and collect files (with
   contents, through [read]) and directories.  Dot-names are skipped: no
   workload makes one, and the fleet's coordinator keeps its placement
   map in [/.placement]. *)
let walk_real ~(read : reader) s =
  let files = ref SM.empty and dirs = ref SM.empty in
  let rec go dir =
    dirs := SM.add dir () !dirs;
    List.iter
      (fun name ->
        let path = join dir name in
        if not (String.starts_with ~prefix:"." name) then
          let att = Fs.stat s path in
          if att.Invfs.Fileatt.ftype = "directory" then go path
          else files := SM.add path (read s path) !files)
      (Fs.readdir s dir)
  in
  go "/";
  (!files, !dirs)

let verify_full_state o ~read s ~phase =
  o.full_verifies <- o.full_verifies + 1;
  let real_files, real_dirs = walk_real ~read s in
  let dirs_expect = dir_list o in
  let dirs_real = List.map fst (SM.bindings real_dirs) in
  if dirs_expect <> dirs_real then
    mismatch o "%s: directories differ: oracle [%s] real [%s]" phase
      (String.concat "," dirs_expect) (String.concat "," dirs_real);
  SM.iter
    (fun path oid ->
      match SM.find_opt path real_files with
      | None -> mismatch o "%s: %s missing from real fs" phase path
      | Some real -> (
        let expect = Option.value ~default:(Bytes.create 0) (OM.find_opt oid o.files) in
        match bytes_diff expect real with
        | None -> ()
        | Some d -> mismatch o "%s: %s content differs: %s" phase path d))
    o.names;
  SM.iter
    (fun path _ ->
      if not (SM.mem path o.names) then mismatch o "%s: real fs has unexpected file %s" phase path)
    real_files

(* Every remembered instant must read exactly what the model materialized
   then — through the archive tier too, where vacuum has migrated the
   versions that back it — and every remembered directory must list
   exactly the names the model had in it. *)
let check_time_travel o s =
  List.iter
    (fun (ts, materialized, dirs) ->
      let paths = SM.fold (fun p _ acc -> p :: acc) materialized dirs in
      let listing dir =
        List.filter_map
          (fun p ->
            if p <> "/" && Filename.dirname p = dir then Some (Filename.basename p) else None)
          paths
        |> List.sort String.compare
      in
      SM.iter
        (fun path expect ->
          o.time_travel_checks <- o.time_travel_checks + 1;
          match Fs.read_whole_file s ~timestamp:ts path with
          | real -> (
            match bytes_diff expect real with
            | None -> ()
            | Some d -> mismatch o "time travel @%Ld: %s differs: %s" ts path d)
          | exception Errors.Fs_error (code, _) ->
            mismatch o "time travel @%Ld: %s unreadable (%s)" ts path (Errors.code_to_string code))
        materialized;
      List.iter
        (fun dir ->
          o.time_travel_checks <- o.time_travel_checks + 1;
          if not (Fs.exists s ~timestamp:ts dir) then
            mismatch o "time travel @%Ld: directory %s missing" ts dir
          else
            let expect = listing dir and real = Fs.readdir s ~timestamp:ts dir in
            if real <> expect then
              mismatch o "time travel @%Ld: listing of %s differs: oracle [%s] real [%s]" ts dir
                (String.concat "," expect) (String.concat "," real))
        dirs)
    o.history

(* ---------- the local harnesses' crash path and op step ---------- *)

(* Whole-system crash and recovery of a local file system.  Recovery
   runs fault-free (the machine that comes back up is a healthy one), the
   pre-crash sessions are dead with their uncommitted overlays, and the
   recovered tree and every remembered instant are checked. *)
let crash_local o fs plan sessions ~injected =
  trace o "== CRASH (injected=%b) after op %d" injected o.ops_attempted;
  o.crashes <- o.crashes + 1;
  if injected then o.injected_crashes <- o.injected_crashes + 1;
  Faultsim.clear_schedule plan;
  let rep = Recovery.crash_and_recover fs in
  if not (Recovery.is_clean rep) then
    mismatch o "recovery not clean: %s" (Recovery.report_to_string rep);
  Array.iter
    (fun ss ->
      ss.h <- Fs.new_session fs;
      clear_overlay ss)
    sessions;
  verify_full_state o ~read:Fs.read_whole_file sessions.(0).h ~phase:"post-crash";
  check_time_travel o sessions.(0).h;
  rep

(* One op of a local workload; [crash] runs the harness's crash path when
   the fault plan fires mid-op. *)
let local_step o w ~crash =
  o.ops_attempted <- o.ops_attempted + 1;
  trace o "-- op %d" o.ops_attempted;
  let ss, op = next_op o w in
  match op o w ss with
  | u ->
    record o ss u;
    o.ops_applied <- o.ops_applied + 1
  | exception Device.Crash_injected _ -> crash ()
  | exception Device.Io_fault _ ->
    trace o "s%d .. io fault" ss.id;
    o.io_faults <- o.io_faults + 1;
    abort_txn o w ss
  | exception Device.Media_failure { device; segid; blkno; reason } ->
    (* With mirrored placement no op should ever see a permanent media
       fault — retry/failover must absorb them — so this is a finding. *)
    mismatch o "op hit media failure on %s/%d/%d: %s" device segid blkno reason;
    abort_txn o w ss
  | exception Errors.Fs_error ((Errors.EAGAIN | Errors.EDEADLK), _) ->
    trace o "s%d .. lock skip" ss.id;
    o.lock_skips <- o.lock_skips + 1;
    abort_txn o w ss
  | exception Not_found ->
    (* commit found a file unlinked by a concurrent session: the
       transaction cannot complete *)
    abort_txn o w ss
  | exception Errors.Fs_error (code, msg) ->
    mismatch o "unexpected fs error %s: %s" (Errors.code_to_string code) msg;
    abort_txn o w ss

(* ---------- the remote harnesses' op step ---------- *)

type 'h remote = {
  w : 'h workload;
  committed : Fs.t; (* the namespace's file system: probes and verifies read it *)
  refusals : Errors.code list; (* more codes that mean "not executed" *)
  mutable current : 'h sess option; (* the session whose op is executing *)
  mutable in_flight : bool; (* an op's RPC is executing right now *)
  mutable verify_pending : bool; (* a mid-op crash deferred its verify *)
}

let remote w ~committed ~refusals =
  { w; committed; refusals; current = None; in_flight = false; verify_pending = false }

(* The committed state is read through fresh local sessions: the
   clients' sessions may be mid-transaction or dead. *)
let verify_remote o r ~phase =
  verify_full_state o ~read:r.w.read (Fs.new_session r.committed) ~phase;
  check_time_travel o (Fs.new_session r.committed)

(* A crash can fire in the middle of an op's RPC whose mutation may have
   committed but not yet reached the model — the reply was still in
   flight.  Checking then would compare against a stale model, so the
   verify waits until the op's own handler has settled the outcome. *)
let remote_crashed o r =
  if r.in_flight then r.verify_pending <- true else verify_remote o r ~phase:"post-crash"

(* One op of a remote workload, and the classification of its failure. *)
let remote_step o r =
  let w = r.w in
  o.ops_attempted <- o.ops_attempted + 1;
  trace o "-- op %d" o.ops_attempted;
  let ss, op = next_op o w in
  ss.pending <- None;
  r.current <- Some ss;
  r.in_flight <- true;
  (match op o w ss with
  | u ->
    record o ss u;
    o.ops_applied <- o.ops_applied + 1
  | exception Errors.Fs_error (Errors.ECONNRESET, msg) ->
    trace o "s%d .. ECONNRESET: %s" ss.id msg;
    (* the session died.  If the outcome is ambiguous (a Commit or an
       auto-commit mutation may or may not have applied), probe the
       committed state; a clean "transaction aborted" just drops the
       overlay — the server rolled everything back. *)
    if indeterminate_of_msg msg then resolve_indeterminate o r.committed ss
    else if ss.in_txn then o.aborts <- o.aborts + 1;
    clear_overlay ss
  | exception Errors.Fs_error (code, _)
    when List.mem code (Errors.EAGAIN :: Errors.EDEADLK :: Errors.ETIMEDOUT :: r.refusals) ->
    (* definitively not executed: lock conflicts, shed work whose
       re-offers ran out, and the harness's own refusals *)
    trace o "s%d .. skip (%s)" ss.id (Errors.code_to_string code);
    o.lock_skips <- o.lock_skips + 1;
    abort_txn o w ss
  | exception Device.Io_fault _ ->
    trace o "s%d .. io fault" ss.id;
    o.io_faults <- o.io_faults + 1;
    abort_txn o w ss
  | exception Errors.Fs_error (Errors.ENOENT, "raced with a concurrent unlink") ->
    (* the server's Not_found mapping: a commit or namespace op lost a
       race with another client's unlink — the benign abort the local
       harnesses tolerate *)
    trace o "s%d .. unlink race" ss.id;
    abort_txn o w ss
  | exception Errors.Fs_error (code, msg) ->
    mismatch o "unexpected fs error %s: %s" (Errors.code_to_string code) msg;
    abort_txn o w ss);
  ss.pending <- None;
  r.current <- None;
  r.in_flight <- false;
  if r.verify_pending then begin
    r.verify_pending <- false;
    verify_remote o r ~phase:"post-crash (deferred)"
  end
