(* The client/server RPC layer: wire framing, exactly-once semantics
   under duplication and lost replies, session loss and clean aborts,
   lease expiry freeing a dead client's locks, server crash mid-request
   composing with recovery. *)

module Fs = Invfs.Fs
module E = Invfs.Errors
module Wire = Remote.Wire
module Server = Remote.Server
module Client = Remote.Client
module Link = Netsim.Link
module F = Faultsim

let mk ?lease_s ?run_cap ?park_cap ?lock_wait_s ?shed_watermark () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  ignore
    (Pagestore.Switch.add_device switch ~name:"disk0"
       ~kind:Pagestore.Device.Magnetic_disk ()
      : Pagestore.Device.t);
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  let server =
    Server.create ~fs ?lease_s ?run_cap ?park_cap ?lock_wait_s ?shed_watermark ()
  in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  (clock, fs, server, net)

let mk_client ?config server net seed =
  let link = Link.create net in
  Client.connect ?config ~server ~link ~rng:(Simclock.Rng.create seed) ()

let expect_error code f =
  match f () with
  | _ -> Alcotest.fail ("expected " ^ E.code_to_string code)
  | exception E.Fs_error (got, msg) ->
    Alcotest.(check string) "error code" (E.code_to_string code) (E.code_to_string got);
    msg

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ---- raw sessions: hand-built frames, no client library ----

   The overload, deadline and version-skew tests need precise control
   over request ids, retry flags, deadlines and pump timing — things the
   client library deliberately hides — so they speak {!Wire} directly:
   build frames, put them on the link, pump the server, drain replies. *)

type raw = {
  r_link : Link.t;
  mutable r_sid : int64;
  mutable r_rid : int64;
  r_asm : Wire.Assembly.t;
}

let raw_send ?(charge = true) ?retry ?deadline_us ?rid r req =
  let rid =
    match rid with
    | Some rid -> rid
    | None ->
      r.r_rid <- Int64.add r.r_rid 1L;
      r.r_rid
  in
  List.iter
    (fun f -> Link.send ~charge r.r_link Link.To_server f)
    (Wire.encode_request ?retry ?deadline_us ~sid:r.r_sid ~rid req);
  rid

(* Drain and decode every reply currently queued toward this client. *)
let raw_replies r =
  let out = ref [] in
  let rec drain () =
    match Link.recv r.r_link Link.To_client with
    | None -> ()
    | Some (frame, _poisoned) ->
      (match Wire.decode_header frame with
      | None -> ()
      | Some h -> (
        match Wire.Assembly.add r.r_asm h with
        | `Complete payload -> (
          match Wire.decode_reply payload with
          | Some rep -> out := (h.Wire.rid, rep) :: !out
          | None -> ())
        | `Pending -> ()));
      drain ()
  in
  drain ();
  List.rev !out

let raw_reply r rid =
  match List.assoc_opt rid (raw_replies r) with
  | Some rep -> rep
  | None -> Alcotest.fail (Printf.sprintf "no reply for rid %Ld" rid)

(* Hello request ids are connection nonces, deduplicated in a window
   shared across connections — every raw session needs a fresh one or
   the server replays the previous session's handshake. *)
let raw_nonce = ref 0x5EED00L

let raw_connect server net =
  let link = Link.create net in
  Server.attach server link;
  let r = { r_link = link; r_sid = 0L; r_rid = 0L; r_asm = Wire.Assembly.create () } in
  raw_nonce := Int64.add !raw_nonce 1L;
  let rid = raw_send ~rid:!raw_nonce r Wire.Hello in
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Ok_reply { result = Wire.R_sid sid; _ } -> r.r_sid <- sid
  | _ -> Alcotest.fail "raw hello failed");
  r

(* Send one request, pump, and insist on an [Ok_reply]. *)
let raw_ok r server req =
  let rid = raw_send r req in
  Server.pump server;
  match raw_reply r rid with
  | Wire.Ok_reply { result; _ } -> result
  | Wire.Err_reply { code; msg; _ } ->
    Alcotest.fail
      (Printf.sprintf "%s failed: %s %s" (Wire.req_name req) (E.code_to_string code) msg)
  | _ -> Alcotest.fail (Wire.req_name req ^ ": unexpected reply kind")

let raw_fd r server req =
  match raw_ok r server req with
  | Wire.R_fd fd -> fd
  | _ -> Alcotest.fail (Wire.req_name req ^ ": expected a file descriptor")

(* ---- wire framing ---- *)

let test_wire_roundtrip () =
  let req =
    Wire.Creat { path = "/a/b"; device = Some "disk0"; ftype = None; compressed = true }
  in
  let frames = Wire.encode_request ~sid:7L ~rid:9L req in
  Alcotest.(check int) "one frame" 1 (List.length frames);
  let asm = Wire.Assembly.create () in
  let decoded =
    List.fold_left
      (fun acc frame ->
        match Wire.decode_header frame with
        | None -> Alcotest.fail "frame did not parse"
        | Some h ->
          Alcotest.(check int) "kind" 0 h.Wire.kind;
          Alcotest.(check int64) "sid" 7L h.Wire.sid;
          Alcotest.(check int64) "rid" 9L h.Wire.rid;
          (match Wire.Assembly.add asm h with
          | `Complete payload -> Wire.decode_request payload
          | `Pending -> acc))
      None frames
  in
  (match decoded with
  | Some (Wire.Creat { path; device; ftype; compressed }) ->
    Alcotest.(check string) "path" "/a/b" path;
    Alcotest.(check (option string)) "device" (Some "disk0") device;
    Alcotest.(check (option string)) "ftype" None ftype;
    Alcotest.(check bool) "compressed" true compressed
  | _ -> Alcotest.fail "decoded to the wrong request");
  (* a large write fragments, and ends with the end-of-stream trailer *)
  let big = String.make (3 * Wire.max_fragment) 'x' in
  let frames = Wire.encode_request ~sid:1L ~rid:2L (Wire.Write { fd = 3; off = 0L; data = big }) in
  Alcotest.(check bool) "fragmented" true (List.length frames >= 4);
  let last = List.nth frames (List.length frames - 1) in
  Alcotest.(check int) "trailer is bare header" Wire.header_bytes (String.length last)

let test_wire_crc_rejects_corruption () =
  let frames = Wire.encode_request ~sid:1L ~rid:1L (Wire.Mkdir { path = "/d" }) in
  let frame = List.hd frames in
  Alcotest.(check bool) "intact frame parses" true (Wire.decode_header frame <> None);
  String.iteri
    (fun i _ ->
      let b = Bytes.of_string frame in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      let mangled = Bytes.to_string b in
      if mangled <> frame then
        Alcotest.(check bool)
          (Printf.sprintf "flip at byte %d rejected" i)
          true
          (Wire.decode_header mangled = None))
    frame

(* Reassemble a frame list the way the receiver does: parse + CRC-check
   every frame, feed it to Assembly, return the completed payload. *)
let assemble frames =
  let asm = Wire.Assembly.create () in
  let payload =
    List.fold_left
      (fun acc frame ->
        match Wire.decode_header frame with
        | None -> Alcotest.fail "frame failed parse/CRC"
        | Some h -> (
          match Wire.Assembly.add asm h with `Complete p -> Some p | `Pending -> acc))
      None frames
  in
  match payload with
  | Some p -> p
  | None -> Alcotest.fail "frames did not complete a message"

let roundtrip_write data =
  let frames =
    Wire.encode_request ~sid:5L ~rid:11L (Wire.Write { fd = 1; off = 0L; data })
  in
  (match Wire.decode_request (assemble frames) with
  | Some (Wire.Write w) ->
    Alcotest.(check int) "data length survives" (String.length data)
      (String.length w.data);
    Alcotest.(check bool) "data bytes survive" true (w.data = data)
  | _ -> Alcotest.fail "decoded to the wrong request");
  frames

let test_wire_empty_payload () =
  (* a zero-byte write still frames, assembles, and decodes to "";
     fitting one frame, it carries no end-of-stream trailer *)
  let frames = roundtrip_write "" in
  Alcotest.(check int) "a short write is a single frame" 1 (List.length frames);
  (* Ping carries no fields at all: the minimal message on the wire *)
  let frames = Wire.encode_request ~sid:1L ~rid:1L Wire.Ping in
  Alcotest.(check int) "ping is one frame" 1 (List.length frames);
  match Wire.decode_request (assemble frames) with
  | Some Wire.Ping -> ()
  | _ -> Alcotest.fail "ping did not roundtrip"

let test_wire_boundary_payload () =
  (* Measure the serialization overhead around the data, then pick data
     lengths that land the encoded payload exactly on the fragment
     boundary and one byte past it. *)
  let payload_len data =
    let frames =
      Wire.encode_request ~sid:5L ~rid:11L (Wire.Write { fd = 1; off = 0L; data })
    in
    List.fold_left
      (fun acc f ->
        match Wire.decode_header f with
        | Some h -> acc + String.length h.Wire.payload
        | None -> Alcotest.fail "frame failed parse/CRC")
      0 frames
  in
  let probe = String.make 100 'p' in
  let overhead = payload_len probe - 100 in
  let at_boundary = String.make (Wire.max_fragment - overhead) 'b' in
  let frames = roundtrip_write at_boundary in
  (* exactly filling one frame is still "not windowed": no trailer *)
  Alcotest.(check int) "exact fit: one full data frame" 1 (List.length frames);
  (match Wire.decode_header (List.hd frames) with
  | Some h ->
    Alcotest.(check int) "data frame filled to max_fragment" Wire.max_fragment
      (String.length h.Wire.payload)
  | None -> Alcotest.fail "boundary frame failed parse/CRC");
  let past_boundary = String.make (Wire.max_fragment - overhead + 1) 'c' in
  let frames = roundtrip_write past_boundary in
  Alcotest.(check int) "one byte over: two data frames + trailer" 3
    (List.length frames)

let test_wire_max_frame_roundtrip () =
  (* maximum-size message: every frame filled, CRC-checked, reassembled
     byte-for-byte; flipping any byte of a full frame must fail its CRC *)
  let data = String.init (3 * Wire.max_fragment) (fun i -> Char.chr (i land 0xff)) in
  let frames = roundtrip_write data in
  Alcotest.(check bool) "fragmented" true (List.length frames >= 4);
  let full = List.hd frames in
  Alcotest.(check int) "full frame is header + max_fragment"
    (Wire.header_bytes + Wire.max_fragment)
    (String.length full);
  let b = Bytes.of_string full in
  Bytes.set b (Wire.header_bytes + (Wire.max_fragment / 2))
    (Char.chr (Char.code (Bytes.get b (Wire.header_bytes + (Wire.max_fragment / 2))) lxor 1));
  Alcotest.(check bool) "corrupt max-size frame rejected" true
    (Wire.decode_header (Bytes.to_string b) = None)

let test_wire_duplicate_fragments () =
  (* a retry resending fragments that already arrived must not corrupt
     reassembly: duplicates are ignored, the payload completes once *)
  let data = String.init (2 * Wire.max_fragment) (fun i -> Char.chr ((i * 7) land 0xff)) in
  let frames =
    Wire.encode_request ~sid:5L ~rid:11L (Wire.Write { fd = 1; off = 0L; data })
  in
  let hdrs =
    List.map
      (fun f ->
        match Wire.decode_header f with
        | Some h -> h
        | None -> Alcotest.fail "frame failed parse/CRC")
      frames
  in
  let asm = Wire.Assembly.create () in
  let complete = ref None in
  let feed h =
    match Wire.Assembly.add asm h with
    | `Complete p -> complete := Some p
    | `Pending -> ()
  in
  (match hdrs with
  | h0 :: rest ->
    feed h0;
    feed h0 (* duplicate before the group completes *);
    List.iter feed rest
  | [] -> Alcotest.fail "no frames");
  match !complete with
  | None -> Alcotest.fail "duplicated fragments never completed"
  | Some p -> (
    match Wire.decode_request p with
    | Some (Wire.Write w) ->
      Alcotest.(check bool) "payload intact after duplicates" true (w.data = data)
    | _ -> Alcotest.fail "decoded to the wrong request")

(* ---- a faultless session ---- *)

let test_basic_session () =
  let _, _, server, net = mk () in
  let c = mk_client server net 1L in
  Client.c_mkdir c "/dir";
  let fd = Client.c_creat c "/dir/f" in
  let data = Bytes.of_string "hello, remote world" in
  ignore (Client.c_write c fd data (Bytes.length data) : int);
  Client.c_close c fd;
  let back = Client.read_whole_file c "/dir/f" in
  Alcotest.(check string) "contents" (Bytes.to_string data) (Bytes.to_string back);
  Alcotest.(check (list string)) "readdir" [ "f" ] (Client.c_readdir c "/dir");
  let att = Client.c_stat c "/dir/f" in
  Alcotest.(check int64) "size" (Int64.of_int (Bytes.length data)) att.Invfs.Fileatt.size;
  Alcotest.(check bool) "exists" true (Client.c_exists c "/dir/f");
  Alcotest.(check bool) "no ghost" false (Client.c_exists c "/dir/g");
  let rows = Client.c_query c "retrieve (filename) where size(file) > 0" in
  Alcotest.(check bool) "query saw the file" true
    (List.exists (List.exists (fun s -> s = "f" || s = "\"f\"")) rows);
  Alcotest.(check int) "no retries on a clean wire" 0 (Client.retries c)

(* ---- exactly-once: duplicated committed write ---- *)

let test_duplicate_write_applied_once () =
  let _, _, server, net = mk () in
  let c = mk_client server net 2L in
  let fd = Client.c_creat c "/f" in
  let first = Bytes.of_string "aaaa" in
  ignore (Client.c_write c fd first (Bytes.length first) : int);
  (* duplicate BOTH frames of the appending write below (its data frame
     and its end-of-stream trailer), so a complete second copy of the
     committed request reaches the server.  The copies are released from
     limbo behind later traffic, i.e. after the original has executed
     and committed. *)
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  F.schedule_net plan ~after:1 F.Net_duplicate;
  F.schedule_net plan ~after:2 F.Net_duplicate;
  let tail = Bytes.of_string "bbbb" in
  ignore (Client.c_write c fd tail (Bytes.length tail) : int);
  Client.c_close c fd;
  let back = Client.read_whole_file c "/f" in
  Alcotest.(check string) "applied exactly once" "aaaabbbb" (Bytes.to_string back);
  Alcotest.(check bool) "server saw the duplicate" true (Server.replays server >= 1);
  Alcotest.(check int) "both frames duplicated" 2 (Link.duplicated (Client.link c));
  F.disarm plan

(* ---- exactly-once: lost commit reply ---- *)

let test_lost_commit_reply_retries_replay () =
  let _, _, server, net = mk () in
  let c = mk_client server net 3L in
  let fd = Client.c_creat c "/f" in
  ignore (Client.c_write c fd (Bytes.of_string "seed") 4 : int);
  Client.c_begin c;
  ignore (Client.c_write c fd (Bytes.of_string "tail") 4 : int);
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  (* message 1 = the commit request; message 2 = its reply: drop it *)
  F.schedule_net plan ~after:2 F.Net_drop;
  Client.c_commit c;
  Alcotest.(check bool) "client retried" true (Client.retries c >= 1);
  Alcotest.(check bool) "server replayed, not re-ran" true (Server.replays server >= 1);
  let back = Client.read_whole_file c "/f" in
  Alcotest.(check string) "committed exactly once" "seedtail" (Bytes.to_string back);
  F.disarm plan

(* ---- corrupt frames look like drops and retries recover ---- *)

let test_corrupt_frame_retried () =
  let _, _, server, net = mk () in
  let c = mk_client server net 4L in
  Client.c_mkdir c "/d";
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  F.schedule_net plan ~after:1 F.Net_corrupt;
  Alcotest.(check bool) "exists despite corruption" true (Client.c_exists c "/d");
  Alcotest.(check bool) "a timeout was charged" true (Netsim.timeouts net >= 1);
  Alcotest.(check bool) "a retry went out" true (Netsim.retries net >= 1);
  Alcotest.(check int) "one corruption" 1 (Link.corrupted (Client.link c));
  F.disarm plan

(* ---- one-way partition heals and the call survives ---- *)

let test_partition_heals () =
  let _, _, server, net = mk () in
  let c = mk_client server net 5L in
  Client.c_mkdir c "/d";
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  F.schedule_net plan ~after:1 (F.Net_partition 2);
  Alcotest.(check (list string)) "answer after healing" [ "d" ] (Client.c_readdir c "/");
  Alcotest.(check int) "two messages swallowed" 2 (Link.partitioned (Client.link c));
  F.disarm plan

(* A read sized far past EOF costs the server the bytes it returns, not
   the bytes it was asked for: 4 MiB requests of a 100-byte file, as a
   plain [Read] and as a shard's [Shard_read]. *)
let test_reads_allocate_only_bytes_read () =
  let len = 4 lsl 20 in
  let measure what f =
    let before = Gc.allocated_bytes () in
    let n = f () in
    let used = Gc.allocated_bytes () -. before in
    Alcotest.(check int) (what ^ " returns the file") 100 n;
    Alcotest.(check bool)
      (Printf.sprintf "%s allocated %.0f bytes" what used)
      true (used < 1048576.)
  in
  let _, _, server, net = mk () in
  let c = mk_client server net 9L in
  Client.write_file c "/small" (Bytes.make 100 's');
  let fd = Client.c_open c "/small" Fs.Rdonly in
  let buf = Bytes.create len in
  measure "Read" (fun () -> Client.c_read c fd buf len);
  Client.c_close c fd;
  let clock = Simclock.Clock.create () in
  let rng = Simclock.Rng.create 9L in
  let cluster =
    Remote.Cluster.create ~clock ~net:(Netsim.create ~clock Netsim.tcp_1993) ~rng ()
  in
  let conn = Remote.Cluster.connect cluster ~rng:(Simclock.Rng.split rng) () in
  let coord = Remote.Cluster.coord conn in
  Client.c_close coord (Client.c_creat coord "/small");
  let oid = (Client.c_stat coord "/small").Invfs.Fileatt.file in
  ignore (Remote.Cluster.shard_write conn ~oid ~off:0L ~data:(String.make 100 's') : int);
  measure "Shard_read" (fun () ->
      String.length (Remote.Cluster.shard_read conn ~oid ~off:0L ~len))

(* ---- session death mid-transaction: clean abort, no partial writes ---- *)

let test_session_death_mid_txn_clean_abort () =
  let _, _, server, net = mk () in
  let c = mk_client server net 6L in
  Client.write_file c "/f" (Bytes.of_string "stable");
  Client.c_begin c;
  let fd = Client.c_open c "/f" Fs.Rdwr in
  ignore (Client.c_write c fd (Bytes.of_string "garbage") 7 : int);
  Server.crash_now server;
  let msg =
    expect_error E.ECONNRESET (fun () ->
        Client.c_write c fd (Bytes.of_string "more") 4)
  in
  Alcotest.(check bool) "told it was aborted" true
    (String.length msg > 0
    && String.sub msg (String.length msg - String.length "transaction aborted")
         (String.length "transaction aborted")
       = "transaction aborted");
  Alcotest.(check bool) "client left the transaction" false (Client.in_txn c);
  (* the client reconnected; the committed state never saw the partial txn *)
  let back = Client.read_whole_file c "/f" in
  Alcotest.(check string) "no partial progress" "stable" (Bytes.to_string back);
  Alcotest.(check int) "one session lost" 1 (Client.sessions_lost c);
  Alcotest.(check bool) "server recovered once" true (Server.crashes server = 1)

(* ---- poisoned frame: server crashes mid-request ---- *)

let test_server_crash_mid_request () =
  let _, _, server, net = mk () in
  let c = mk_client server net 7L in
  Client.write_file c "/f" (Bytes.of_string "stable");
  let fd = Client.c_open c "/f" Fs.Rdwr in
  (* poison the auto-commit write itself: the server machine dies at the
     moment the request arrives, before anything executes *)
  let plan = F.create () in
  F.arm_link plan (Client.link c);
  F.schedule_net plan ~after:1 F.Net_server_crash;
  let msg =
    expect_error E.ECONNRESET (fun () ->
        ignore (Client.c_write c fd (Bytes.of_string "junk") 4 : int))
  in
  ignore msg;
  Alcotest.(check bool) "server crashed and recovered" true (Server.crashes server = 1);
  let back = Client.read_whole_file c "/f" in
  Alcotest.(check string) "mid-request crash left no trace" "stable" (Bytes.to_string back);
  F.disarm plan

(* ---- leases: a dead client's locks do not outlive it ---- *)

let test_lease_expiry_frees_locks () =
  let clock, _, server, net = mk ~lease_s:30. () in
  let a = mk_client server net 8L in
  let b = mk_client server net 9L in
  Client.write_file a "/f" (Bytes.of_string "v1");
  (* A takes the write lock inside a transaction, then goes silent.
     (Truncation locks immediately; a small p_write alone would only
     coalesce into the session's pending buffer.) *)
  Client.c_begin a;
  let fd = Client.c_open a "/f" Fs.Rdwr in
  Client.c_ftruncate a fd 0L;
  ignore (Client.c_write a fd (Bytes.of_string "v2") 2 : int);
  (* B cannot write while A holds the lock *)
  ignore
    (expect_error E.EAGAIN (fun () -> Client.write_file b "/f" (Bytes.of_string "v3"))
      : string);
  (if Client.in_txn b then Client.c_abort b);
  (* A's lease runs out; the server reaps the session and aborts its txn *)
  Simclock.Clock.advance clock 31.;
  Client.write_file b "/f" (Bytes.of_string "v3");
  Alcotest.(check string) "B's write landed" "v3"
    (Bytes.to_string (Client.read_whole_file b "/f"));
  Alcotest.(check bool) "a lease expired" true (Server.leases_expired server >= 1);
  (* A's next use of the dead session is a clean abort *)
  ignore
    (expect_error E.ECONNRESET (fun () ->
         Client.c_write a fd (Bytes.of_string "zz") 2)
      : string);
  Alcotest.(check bool) "A out of txn" false (Client.in_txn a)

(* ---- reissuable reads survive a session reset transparently ---- *)

let test_transparent_reissue_after_crash () =
  let _, _, server, net = mk () in
  let c = mk_client server net 10L in
  Client.c_mkdir c "/d";
  Server.crash_now server;
  (* no transaction, read-only: the client reconnects and re-issues *)
  Alcotest.(check (list string)) "readdir after silent reconnect" [ "d" ]
    (Client.c_readdir c "/");
  Alcotest.(check int) "session was replaced" 1 (Client.sessions_lost c);
  Alcotest.(check bool) "reconnected" true (Client.reconnects c >= 1)

(* ---- admin crash op: crash, recover, answer ---- *)

let test_crash_server_op () =
  let _, _, server, net = mk () in
  let c = mk_client server net 11L in
  Client.write_file c "/f" (Bytes.of_string "durable");
  Client.c_crash_server c;
  Alcotest.(check int) "crashed once" 1 (Server.crashes server);
  Alcotest.(check string) "durable data survived" "durable"
    (Bytes.to_string (Client.read_whole_file c "/f"))

(* ---- admission control: a full run queue sheds, shed work never ran ---- *)

let test_overload_shed_and_reoffer () =
  let _, _, server, net = mk ~run_cap:1 () in
  let r = raw_connect server net in
  let rid_a = raw_send r (Wire.Mkdir { path = "/a" }) in
  let rid_b = raw_send r (Wire.Mkdir { path = "/b" }) in
  Server.pump server;
  let reps = raw_replies r in
  (match List.assoc_opt rid_a reps with
  | Some (Wire.Ok_reply _) -> ()
  | _ -> Alcotest.fail "first mkdir should be admitted and executed");
  (match List.assoc_opt rid_b reps with
  | Some (Wire.Overloaded { retry_after_s }) ->
    Alcotest.(check bool) "retry-after hint is positive" true (retry_after_s > 0.)
  | _ -> Alcotest.fail "second mkdir should shed at the queue bound");
  Alcotest.(check int) "one shed" 1 (Server.sheds server);
  (* Overloaded is definitively-not-executed and unrecorded: re-offering
     the very same request id is admitted and executes.  (If the shed had
     secretly executed, this mkdir would answer EEXIST.) *)
  ignore (raw_send ~rid:rid_b r (Wire.Mkdir { path = "/b" }) : int64);
  Server.pump server;
  (match raw_reply r rid_b with
  | Wire.Ok_reply _ -> ()
  | Wire.Err_reply { msg; _ } -> Alcotest.fail ("re-offer should be admitted: " ^ msg)
  | _ -> Alcotest.fail "re-offer should be admitted");
  Alcotest.(check int) "re-offer executed rather than replayed" 0 (Server.replays server);
  match raw_ok r server (Wire.Readdir { path = "/"; timestamp = None }) with
  | Wire.R_names names ->
    Alcotest.(check (list string)) "exactly the admitted work landed" [ "a"; "b" ]
      (List.sort compare names)
  | _ -> Alcotest.fail "readdir failed"

(* ---- the watermark sheds retransmissions while first attempts land ---- *)

let test_watermark_sheds_retries_first () =
  let _, _, server, net = mk ~run_cap:4 ~shed_watermark:0.25 () in
  let r = raw_connect server net in
  let rid_a = raw_send r (Wire.Mkdir { path = "/a" }) in
  let rid_b = raw_send ~retry:true r (Wire.Mkdir { path = "/b" }) in
  let rid_c = raw_send r (Wire.Mkdir { path = "/c" }) in
  Server.pump server;
  let reps = raw_replies r in
  (match List.assoc_opt rid_a reps with
  | Some (Wire.Ok_reply _) -> ()
  | _ -> Alcotest.fail "first attempt below the watermark should be admitted");
  (match List.assoc_opt rid_b reps with
  | Some (Wire.Overloaded _) -> ()
  | _ -> Alcotest.fail "a retransmission past the watermark should shed");
  (match List.assoc_opt rid_c reps with
  | Some (Wire.Ok_reply _) -> ()
  | _ -> Alcotest.fail "a first attempt past the watermark should still be admitted");
  Alcotest.(check int) "the shed was counted as a retry shed" 1 (Server.retry_sheds server);
  Alcotest.(check int) "one shed total" 1 (Server.sheds server)

(* ---- expired deadlines are refused, recorded, and deduplicated ---- *)

let test_deadline_reject_recorded () =
  let clock, _, server, net = mk () in
  Simclock.Clock.advance clock 1.;
  let r = raw_connect server net in
  let rid = raw_send ~deadline_us:1L r (Wire.Mkdir { path = "/late" }) in
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Err_reply { code; msg; _ } ->
    Alcotest.(check string) "code" "ETIMEDOUT" (E.code_to_string code);
    Alcotest.(check bool) "names the expired deadline" true
      (starts_with ~prefix:"deadline expired" msg)
  | _ -> Alcotest.fail "expired work should be refused at admission");
  Alcotest.(check int) "rejection counted" 1 (Server.deadline_rejects server);
  (* the rejection is definitive: a retransmission replays the verdict
     instead of judging (or executing) the request again *)
  ignore (raw_send ~rid ~retry:true ~deadline_us:1L r (Wire.Mkdir { path = "/late" }) : int64);
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Err_reply { code; _ } ->
    Alcotest.(check string) "replayed code" "ETIMEDOUT" (E.code_to_string code)
  | _ -> Alcotest.fail "retransmission should replay the recorded rejection");
  Alcotest.(check bool) "served from the dedup window" true (Server.replays server >= 1);
  Alcotest.(check int) "not re-judged" 1 (Server.deadline_rejects server);
  match raw_ok r server (Wire.Readdir { path = "/"; timestamp = None }) with
  | Wire.R_names names -> Alcotest.(check (list string)) "nothing executed" [] names
  | _ -> Alcotest.fail "readdir failed"

(* ---- a deadline that expires in the queue is caught before execution ---- *)

let test_deadline_expires_in_queue () =
  let clock, _, server, net = mk () in
  let setup = mk_client server net 40L in
  Client.write_file setup "/big" (Bytes.make 4096 'z');
  let a = raw_connect server net in
  let b = raw_connect server net in
  ignore (raw_ok b server Wire.Begin : Wire.result);
  let fd = raw_fd b server (Wire.Open { path = "/big"; mode = 1; timestamp = None }) in
  ignore
    (raw_ok b server (Wire.Write { fd; off = 0L; data = String.make 4096 'w' })
      : Wire.result);
  (* One pump, two admissions.  Links drain newest-attached first, so
     B's commit enters the run queue ahead of A's mkdir; the commit
     forces pages to the magnetic disk (several milliseconds of
     simulated time), and the mkdir's deadline — alive at admission —
     has passed by the time the queue reaches it.  The frames go out
     uncharged so the deadline races only the commit's disk time, not
     the wire. *)
  let deadline_us = Int64.of_float ((Simclock.Clock.now clock +. 0.002) *. 1e6) in
  ignore (raw_send ~charge:false b Wire.Commit : int64);
  let rid_a = raw_send ~charge:false ~deadline_us a (Wire.Mkdir { path = "/d" }) in
  Server.pump server;
  (match raw_reply a rid_a with
  | Wire.Err_reply { code; msg; _ } ->
    Alcotest.(check string) "code" "ETIMEDOUT" (E.code_to_string code);
    Alcotest.(check bool) "caught at the pre-execution check" true
      (starts_with ~prefix:"deadline expired" msg
      && String.sub msg (String.length msg - String.length "execution")
           (String.length "execution")
         = "execution")
  | _ -> Alcotest.fail "queued work whose deadline passed should be refused");
  Alcotest.(check int) "rejection counted" 1 (Server.deadline_rejects server);
  match raw_ok a server (Wire.Readdir { path = "/"; timestamp = None }) with
  | Wire.R_names names ->
    Alcotest.(check (list string)) "the mkdir never ran" [ "big" ]
      (List.sort compare names)
  | _ -> Alcotest.fail "readdir failed"

(* ---- version skew: unknown opcodes answer Unsupported, recorded ---- *)

let test_unknown_opcode_unsupported () =
  let _, _, server, net = mk () in
  let r = raw_connect server net in
  (* a frame from a future protocol revision: take a valid single-frame
     request, rewrite its opcode byte to 99, recompute the CRC *)
  r.r_rid <- Int64.add r.r_rid 1L;
  let rid = r.r_rid in
  let frame = Bytes.of_string (List.hd (Wire.encode_request ~sid:r.r_sid ~rid Wire.Ping)) in
  Bytes.set frame Wire.header_bytes (Char.chr 99);
  for i = 32 to 35 do
    Bytes.set frame i '\000'
  done;
  let crc = Wire.crc32 frame ~off:0 ~len:(Bytes.length frame) in
  Bytes.set frame 32 (Char.chr (Int32.to_int (Int32.shift_right_logical crc 24) land 0xff));
  Bytes.set frame 33 (Char.chr (Int32.to_int (Int32.shift_right_logical crc 16) land 0xff));
  Bytes.set frame 34 (Char.chr (Int32.to_int (Int32.shift_right_logical crc 8) land 0xff));
  Bytes.set frame 35 (Char.chr (Int32.to_int crc land 0xff));
  let frame = Bytes.to_string frame in
  (* the patched frame passes the CRC and is cleanly framed — distinguishable
     from wire damage — but carries an opcode this server does not have *)
  (match Wire.decode_header frame with
  | None -> Alcotest.fail "patched frame should pass the CRC"
  | Some h -> (
    match Wire.decode_request_any h.Wire.payload with
    | `Unknown 99 -> ()
    | `Req _ -> Alcotest.fail "opcode 99 should not decode as a known request"
    | _ -> Alcotest.fail "opcode 99 should decode as `Unknown, not `Malformed"));
  Link.send r.r_link Link.To_server frame;
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Unsupported { opcode } -> Alcotest.(check int) "opcode echoed" 99 opcode
  | _ -> Alcotest.fail "expected a structured Unsupported answer");
  Alcotest.(check int) "counted once" 1 (Server.unsupported server);
  (* the verdict is definitive and recorded: a retransmission replays it *)
  Link.send r.r_link Link.To_server frame;
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Unsupported { opcode = 99 } -> ()
  | _ -> Alcotest.fail "retransmission should replay Unsupported");
  Alcotest.(check bool) "served from the dedup window" true (Server.replays server >= 1);
  Alcotest.(check int) "not double-counted" 1 (Server.unsupported server);
  (* version skew is per-request, not fatal: the session still works *)
  match raw_ok r server (Wire.Readdir { path = "/"; timestamp = None }) with
  | Wire.R_names [] -> ()
  | _ -> Alcotest.fail "session should survive an unsupported opcode"

(* ---- parking: a lock-wait that never resolves times out, recorded ---- *)

let test_park_timeout_expires () =
  let clock, _, server, net = mk ~lock_wait_s:2. () in
  let setup = mk_client server net 20L in
  Client.write_file setup "/f" (Bytes.of_string "data");
  let a = raw_connect server net in
  ignore (raw_ok a server Wire.Begin : Wire.result);
  let fd_a = raw_fd a server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_ok a server (Wire.Ftruncate { fd = fd_a; size = 0L }) : Wire.result);
  (* B's auto-commit truncate hits A's exclusive lock and parks *)
  let b = raw_connect server net in
  let fd_b = raw_fd b server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  let rid_b = raw_send b (Wire.Ftruncate { fd = fd_b; size = 1L }) in
  Server.pump server;
  Alcotest.(check int) "parked on the held lock" 1 (Server.parked_now server);
  Alcotest.(check int) "no reply while parked" 0 (List.length (raw_replies b));
  (* nobody releases the lock; the lock-wait timer expires the request *)
  Simclock.Clock.advance clock 3.;
  Server.pump server;
  (match raw_reply b rid_b with
  | Wire.Err_reply { code; msg; _ } ->
    Alcotest.(check string) "code" "ETIMEDOUT" (E.code_to_string code);
    Alcotest.(check bool) "names the lock wait" true
      (starts_with ~prefix:"lock wait timed out" msg)
  | _ -> Alcotest.fail "the parked request should expire");
  Alcotest.(check int) "timeout counted" 1 (Server.park_timeouts server);
  Alcotest.(check int) "nothing left parked" 0 (Server.parked_now server);
  (* recorded: a retransmission replays the timeout verdict *)
  ignore (raw_send ~rid:rid_b ~retry:true b (Wire.Ftruncate { fd = fd_b; size = 1L }) : int64);
  Server.pump server;
  (match raw_reply b rid_b with
  | Wire.Err_reply { code; _ } ->
    Alcotest.(check string) "replayed code" "ETIMEDOUT" (E.code_to_string code)
  | _ -> Alcotest.fail "retransmission should replay the timeout");
  Alcotest.(check bool) "served from the dedup window" true (Server.replays server >= 1)

(* ---- the client's retry budget stops it hammering a saturated server ---- *)

let test_retry_budget_exhaustion () =
  let _, _, server, net = mk ~run_cap:1 ~lock_wait_s:1000. () in
  let setup = mk_client server net 21L in
  Client.write_file setup "/f" (Bytes.of_string "data");
  (* pin the backlog: A holds the lock in a transaction it never ends,
     B's truncate parks behind it, so queue depth sits at run_cap *)
  let a = raw_connect server net in
  ignore (raw_ok a server Wire.Begin : Wire.result);
  let fd_a = raw_fd a server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_ok a server (Wire.Ftruncate { fd = fd_a; size = 0L }) : Wire.result);
  let b = raw_connect server net in
  let fd_b = raw_fd b server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  let rid_b = raw_send b (Wire.Ftruncate { fd = fd_b; size = 1L }) in
  Server.pump server;
  Alcotest.(check int) "backlog pinned at one parked request" 1 (Server.parked_now server);
  (* a fresh client with a one-token budget: the first Overloaded answer
     spends the token on a re-offer, the second finds the bucket dry *)
  let config =
    { Client.default_config with Client.retry_budget = 1; retry_refill_per_s = 0. }
  in
  let c = mk_client ~config server net 22L in
  let msg = expect_error E.EBUSY (fun () -> Client.c_mkdir c "/x") in
  Alcotest.(check string) "names the dry budget"
    "server overloaded and retry budget exhausted" msg;
  Alcotest.(check int) "two overload answers" 2 (Client.overloaded c);
  Alcotest.(check int) "one budget denial" 1 (Client.budget_denials c);
  (* relief traffic is exempt from admission control: A's abort lands
     through the full queue, releases the lock, and the parked request
     resumes in the same pump *)
  ignore (raw_ok a server Wire.Abort : Wire.result);
  (match raw_reply b rid_b with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "the parked truncate should resume after the release");
  Alcotest.(check bool) "resume counted" true (Server.park_resumes server >= 1);
  Alcotest.(check int) "backlog drained" 0 (Server.parked_now server);
  (* with the backlog gone the same client is admitted, dry budget and all *)
  Client.c_mkdir c "/x";
  Alcotest.(check bool) "the shed mkdir finally landed" true (Client.c_exists c "/x")

(* ---- an expired client deadline fails fast, off the wire ---- *)

let test_client_deadline_failfast () =
  let clock, _, server, net = mk () in
  let c = mk_client server net 23L in
  Client.c_mkdir c "/d";
  let wire_requests = Server.requests server in
  Client.set_deadline c (Some (Simclock.Clock.now clock -. 0.1));
  let msg = expect_error E.ETIMEDOUT (fun () -> Client.c_mkdir c "/e") in
  Alcotest.(check bool) "refused before sending" true
    (starts_with ~prefix:"deadline expired before sending" msg);
  Alcotest.(check int) "fail-fast counted" 1 (Client.deadline_failfasts c);
  Alcotest.(check int) "nothing reached the wire" wire_requests (Server.requests server);
  (* clearing the deadline restores plain behaviour *)
  Client.set_deadline c None;
  Client.c_mkdir c "/e";
  Alcotest.(check (list string)) "only the admitted mkdirs exist" [ "d"; "e" ]
    (List.sort compare (Client.c_readdir c "/"))

(* ---- a parked deadlock victim is aborted cleanly across three parties ---- *)

let test_parked_deadlock_victim () =
  let _, _, server, net = mk ~lock_wait_s:1000. () in
  let setup = mk_client server net 30L in
  Client.write_file setup "/fx" (Bytes.of_string "xx");
  Client.write_file setup "/fa" (Bytes.of_string "aa");
  Client.write_file setup "/f2" (Bytes.of_string "22");
  (* connect order fixes pump drain order (newest-attached first): the
     final pump must admit D's commit before E's truncate *)
  let x = raw_connect server net in
  let a = raw_connect server net in
  let e = raw_connect server net in
  let d = raw_connect server net in
  (* X holds /fx exclusively; A holds /fa *)
  ignore (raw_ok x server Wire.Begin : Wire.result);
  let xfx = raw_fd x server (Wire.Open { path = "/fx"; mode = 1; timestamp = None }) in
  ignore (raw_ok x server (Wire.Ftruncate { fd = xfx; size = 0L }) : Wire.result);
  ignore (raw_ok a server Wire.Begin : Wire.result);
  let afa = raw_fd a server (Wire.Open { path = "/fa"; mode = 1; timestamp = None }) in
  ignore (raw_ok a server (Wire.Ftruncate { fd = afa; size = 0L }) : Wire.result);
  (* X → A: X's in-transaction read of /fa parks behind A's lock *)
  let xfa = raw_fd x server (Wire.Open { path = "/fa"; mode = 0; timestamp = None }) in
  let rid_x = raw_send x (Wire.Read { fd = xfa; off = 0L; len = 4 }) in
  Server.pump server;
  Alcotest.(check int) "X parked" 1 (Server.parked_now server);
  (* E → X: E's read of /fx parks behind X *)
  ignore (raw_ok e server Wire.Begin : Wire.result);
  let efx = raw_fd e server (Wire.Open { path = "/fx"; mode = 0; timestamp = None }) in
  let ef2 = raw_fd e server (Wire.Open { path = "/f2"; mode = 1; timestamp = None }) in
  let rid_e = raw_send e (Wire.Read { fd = efx; off = 0L; len = 4 }) in
  Server.pump server;
  Alcotest.(check int) "X and E parked" 2 (Server.parked_now server);
  (* D holds /f2 *)
  ignore (raw_ok d server Wire.Begin : Wire.result);
  let df2 = raw_fd d server (Wire.Open { path = "/f2"; mode = 1; timestamp = None }) in
  ignore (raw_ok d server (Wire.Ftruncate { fd = df2; size = 0L }) : Wire.result);
  (* A → D: A's read of /f2 parks behind D *)
  let af2 = raw_fd a server (Wire.Open { path = "/f2"; mode = 0; timestamp = None }) in
  let rid_a = raw_send a (Wire.Read { fd = af2; off = 0L; len = 4 }) in
  Server.pump server;
  Alcotest.(check int) "X, E and A parked" 3 (Server.parked_now server);
  (* One pump: D commits (releasing /f2, waking the parked requests) and
     E's in-transaction truncate takes the lock D dropped.  A's parked
     read then re-acquires into the cycle A→E→X→A and is the victim:
     its transaction is aborted server-side, the others survive — and
     A's released lock lets X's parked read complete in the same pump. *)
  ignore (raw_send d Wire.Commit : int64);
  ignore (raw_send e (Wire.Ftruncate { fd = ef2; size = 1L }) : int64);
  Server.pump server;
  (match raw_reply a rid_a with
  | Wire.Err_reply { code; txn_open; _ } ->
    Alcotest.(check string) "victim code" "EDEADLK" (E.code_to_string code);
    Alcotest.(check bool) "victim transaction aborted server-side" false txn_open
  | _ -> Alcotest.fail "A should be the deadlock victim");
  (match raw_reply x rid_x with
  | Wire.Ok_reply { result = Wire.R_data _; txn_open } ->
    Alcotest.(check bool) "X's transaction survives" true txn_open
  | _ -> Alcotest.fail "X's parked read should resume once the victim aborts");
  Alcotest.(check int) "one deadlock abort" 1 (Server.deadlock_aborts server);
  Alcotest.(check int) "each of X, E, A parked once" 3 (Server.parks server);
  Alcotest.(check int) "no park timeouts" 0 (Server.park_timeouts server);
  Alcotest.(check int) "E still parked behind X" 1 (Server.parked_now server);
  (* X commits, releasing /fx: E's read completes and the system drains *)
  ignore (raw_ok x server Wire.Commit : Wire.result);
  (match raw_reply e rid_e with
  | Wire.Ok_reply { result = Wire.R_data _; _ } -> ()
  | _ -> Alcotest.fail "E's parked read should resume after X commits");
  Alcotest.(check int) "nothing left parked" 0 (Server.parked_now server);
  Alcotest.(check bool) "resumes counted" true (Server.park_resumes server >= 3)

(* ---- group commit: explicit commit replies ride the batch force ---- *)

let test_group_commit_defers_replies () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  ignore
    (Pagestore.Switch.add_device switch ~name:"disk0"
       ~kind:Pagestore.Device.Magnetic_disk ()
      : Pagestore.Device.t);
  let db =
    Relstore.Db.create ~switch ~clock ~group_commit:8 ~flush_wait_us:1_000_000
      ~deferred_index:true ~early_release:true ()
  in
  let fs = Fs.make db () in
  let server = Server.create ~fs () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  (* set up /fb outside any explicit transaction so B's writes don't
     contend with A's create on the naming relation *)
  let setup = raw_connect server net in
  ignore
    (raw_ok setup server
       (Wire.Creat { path = "/fb"; device = None; ftype = None; compressed = false })
      : Wire.result);
  let a = raw_connect server net and b = raw_connect server net in
  ignore (raw_ok a server Wire.Begin : Wire.result);
  ignore
    (raw_ok a server
       (Wire.Creat { path = "/fa"; device = None; ftype = None; compressed = false })
      : Wire.result);
  ignore (raw_ok b server Wire.Begin : Wire.result);
  let fd_b = raw_fd b server (Wire.Open { path = "/fb"; mode = 1; timestamp = None }) in
  ignore
    (raw_ok b server (Wire.Write { fd = fd_b; off = 0L; data = "group" })
      : Wire.result);
  Alcotest.(check int) "no deferrals yet" 0 (Server.group_defers server);
  (* both commits land in one pump: each joins the pending batch, so
     neither acknowledgement may go out before the end-of-pump force *)
  let ra = raw_send a Wire.Commit in
  let rb = raw_send b Wire.Commit in
  Server.pump server;
  Alcotest.(check int) "both commit replies deferred" 2 (Server.group_defers server);
  (match raw_reply a ra with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "A's commit should succeed after the group force");
  (match raw_reply b rb with
  | Wire.Ok_reply _ -> ()
  | _ -> Alcotest.fail "B's commit should succeed after the group force");
  (* the force drained the batch: nothing pending, files durable *)
  Alcotest.(check int) "batch drained" 0
    (Relstore.Status_log.pending_force (Relstore.Db.status_log db));
  let c = raw_connect server net in
  match raw_ok c server (Wire.Exists { path = "/fa"; timestamp = None }) with
  | Wire.R_bool true -> ()
  | _ -> Alcotest.fail "/fa should exist after the batched commit"

(* ---- same inputs, same answers: the overload machinery is deterministic ---- *)

let overload_scenario () =
  let clock, _, server, net = mk ~run_cap:1 () in
  Simclock.Clock.advance clock 1.;
  let r = raw_connect server net in
  let buf = Buffer.create 256 in
  let note reps =
    List.iter
      (fun (rid, rep) ->
        Buffer.add_string buf
          (Printf.sprintf "%Ld=%s;" rid
             (Digest.to_hex
                (Digest.string (String.concat "" (Wire.encode_reply ~sid:9L ~rid rep))))))
      reps
  in
  let rid_a = raw_send r (Wire.Mkdir { path = "/a" }) in
  ignore (raw_send ~retry:true r (Wire.Mkdir { path = "/b" }) : int64);
  ignore (raw_send ~deadline_us:1L r (Wire.Mkdir { path = "/c" }) : int64);
  Server.pump server;
  note (raw_replies r);
  ignore rid_a;
  ignore (raw_send r (Wire.Readdir { path = "/"; timestamp = None }) : int64);
  Server.pump server;
  note (raw_replies r);
  Buffer.add_string buf
    (Printf.sprintf "sheds=%d retry=%d dead=%d replays=%d reqs=%d" (Server.sheds server)
       (Server.retry_sheds server) (Server.deadline_rejects server)
       (Server.replays server) (Server.requests server));
  Buffer.contents buf

let test_overload_determinism () =
  Alcotest.(check string) "identical replies and counters" (overload_scenario ())
    (overload_scenario ())

(* ---- shed clients desynchronize: jittered retry-after ----

   The server hands every shed client the same retry-after hint; if they
   all slept exactly that long they would re-arrive as the same
   thundering herd.  The client jitters the hint within +/-25%, so two
   clients with different rng streams sleep different amounts — and the
   jitter never leaves the band, so backoff stays within the server's
   intent. *)

let test_retry_after_jitter_desyncs () =
  let a = Simclock.Rng.create 1L and b = Simclock.Rng.create 2L in
  let hint = 0.04 in
  let distinct = ref false in
  for _ = 1 to 64 do
    let ja = Client.jitter_retry_after a hint in
    let jb = Client.jitter_retry_after b hint in
    Alcotest.(check bool) "within [0.75x, 1.25x)" true
      (ja >= 0.75 *. hint && ja < 1.25 *. hint && jb >= 0.75 *. hint
     && jb < 1.25 *. hint);
    if ja <> jb then distinct := true
  done;
  Alcotest.(check bool) "two clients desynchronize" true !distinct


(* ---- snapshots, clones and multi-file transactions over the wire ---- *)

let test_remote_snapshot_and_clone () =
  let _, _, server, net = mk () in
  let c = mk_client server net 61L in
  Client.write_file c "/f" (Bytes.of_string "epoch one");
  let h = Client.c_snapshot c in
  Client.c_clone c ~src:"/f" ~dst:"/f.clone";
  Client.write_file c "/f" (Bytes.of_string "epoch two");
  Alcotest.(check string) "clone froze the source's committed state" "epoch one"
    (Bytes.to_string (Client.read_whole_file c "/f.clone"));
  Alcotest.(check string) "snapshot horizon reads the old bytes" "epoch one"
    (Bytes.to_string (Client.read_whole_file c ~timestamp:h "/f"));
  Alcotest.(check string) "the present moved on" "epoch two"
    (Bytes.to_string (Client.read_whole_file c "/f"))

let test_write_many_atomic () =
  let _, _, server, net = mk () in
  let c = mk_client server net 62L in
  Client.write_many c
    [ ("/a", Bytes.of_string "one"); ("/b", Bytes.of_string "two") ];
  Alcotest.(check bool) "not left in a transaction" false (Client.in_txn c);
  Alcotest.(check string) "first landed" "one"
    (Bytes.to_string (Client.read_whole_file c "/a"));
  Alcotest.(check string) "second landed" "two"
    (Bytes.to_string (Client.read_whole_file c "/b"));
  (* an exception mid-group aborts the whole transaction: no partial state *)
  (match
     Client.with_txn c (fun c ->
         Client.write_file c "/c" (Bytes.of_string "doomed");
         failwith "boom")
   with
  | () -> Alcotest.fail "expected the injected failure"
  | exception Failure _ -> ());
  Alcotest.(check bool) "transaction closed after the failure" false (Client.in_txn c);
  Alcotest.(check bool) "nothing from the aborted group" false (Client.c_exists c "/c")

let test_remote_vacuum_step_rpc () =
  let clock, fs, server, net = mk () in
  let c = mk_client server net 63L in
  Client.write_file c "/f" (Bytes.of_string "v1");
  Client.write_file c "/f" (Bytes.of_string "v2");
  Simclock.Clock.advance clock 1.;
  (* explicit increments over the wire eventually wrap the heaps *)
  let scanned = ref 0 in
  for _ = 1 to 16 do
    scanned := !scanned + Client.c_vacuum_step c ()
  done;
  Alcotest.(check bool) "the RPC increments scanned versions" true (!scanned > 0);
  Alcotest.(check string) "current contents untouched" "v2"
    (Bytes.to_string (Client.read_whole_file c "/f"));
  let r = Invfs.Fsck.audit fs in
  Alcotest.(check bool) "audit clean after wire-driven vacuum" true (Invfs.Fsck.is_clean r)

(* ---- close-behind ---- *)

let test_close_held_until_next_request () =
  let _, _, server, net = mk () in
  let c = mk_client server net 71L in
  let fd = Client.c_creat c "/f" in
  let before = Netsim.messages net in
  Client.c_close c fd;
  Alcotest.(check int) "the close sent nothing" before (Netsim.messages net);
  Alcotest.(check int) "held" 1 (Client.closes_held c);
  Alcotest.(check int) "not yet run" 0 (Server.closes_carried server);
  ignore (expect_error E.EBADF (fun () -> Client.c_tell c fd) : string);
  Alcotest.(check bool) "next request answered" true (Client.c_exists c "/f");
  Alcotest.(check int) "one round trip carried it" (before + 2) (Netsim.messages net);
  Alcotest.(check int) "run by the server" 1 (Server.closes_carried server);
  (* the server closes the fds before the carried call runs: a compound
     that closes fd N and then asks about fd N is refused *)
  let r = raw_connect server net in
  let fd =
    raw_fd r server
      (Wire.Creat { path = "/g"; device = None; ftype = None; compressed = false })
  in
  let rid = raw_send r (Wire.Carry { begin_txn = false; closes = [ fd ]; req = Wire.Filesize { fd } }) in
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Err_reply { code = E.EBADF; _ } -> ()
  | _ -> Alcotest.fail "the carried call should find its fd already closed");
  (* past the cap the close goes out on its own, carrying the held ones *)
  let fds = List.init (Wire.max_carried_closes + 1) (fun _ -> Client.c_open c "/f" Fs.Rdonly) in
  let before = Netsim.messages net and carried = Server.closes_carried server in
  List.iter (Client.c_close c) fds;
  Alcotest.(check int) "one round trip for cap + 1 closes" (before + 2) (Netsim.messages net);
  Alcotest.(check int) "the cap rode along" (carried + Wire.max_carried_closes)
    (Server.closes_carried server)

let test_carried_once_under_faults () =
  List.iter
    (fun (name, fault, after, replayed) ->
      let _, _, server, net = mk () in
      let c = mk_client server net 72L in
      let fd = Client.c_creat c "/f" in
      Client.c_close c fd;
      let plan = F.create () in
      F.arm_link plan (Client.link c);
      (* message 1 = the compound request; message 2 = its reply *)
      F.schedule_net plan ~after fault;
      (* the carried request *)
      Client.c_mkdir c "/d";
      (* traffic behind it releases a held-back duplicate *)
      Alcotest.(check (list string)) (name ^ ": tree") [ "d"; "f" ]
        (List.sort compare (Client.c_readdir c "/"));
      F.disarm plan;
      Alcotest.(check bool) (name ^ ": the fault fired") true
        (Link.faults_injected (Client.link c) >= 1);
      Alcotest.(check int) (name ^ ": closes ran once") 1 (Server.closes_carried server);
      (* the second copy was answered from the dedup window, not run *)
      Alcotest.(check int) (name ^ ": replays") replayed (Server.replays server))
    [
      ("duplicated request", F.Net_duplicate, 1, 1);
      ("dropped request", F.Net_drop, 1, 0);
      ("dropped reply", F.Net_drop, 2, 1);
    ]

let test_held_close_never_reaches_new_session () =
  let clock, fs, server, net = mk ~lease_s:1.0 () in
  Fs.write_file (Fs.new_session fs) "/a" (Bytes.of_string "alpha");
  let c = mk_client server net 73L in
  let fd = Client.c_open c "/a" Fs.Rdonly in
  Client.c_close c fd;
  (* the lease lapses: the compound carrying the close meets
     Unknown_session, the client reconnects and reissues the open on a
     fresh session, where fd numbers start over *)
  Simclock.Clock.advance clock 5.;
  let fd' = Client.c_open c "/a" Fs.Rdonly in
  Alcotest.(check int) "session lost" 1 (Client.sessions_lost c);
  Alcotest.(check int) "same fd number on the new session" fd fd';
  let buf = Bytes.create 5 in
  Alcotest.(check int) "the new fd is open" 5 (Client.c_read c fd' buf 5);
  Alcotest.(check string) "contents" "alpha" (Bytes.to_string buf);
  Alcotest.(check int) "nothing carried" 0 (Server.closes_carried server);
  (* a close held when the session dies is dropped with it *)
  Client.c_close c fd';
  Client.c_crash_server c;
  let fd'' = Client.c_open c "/a" Fs.Rdonly in
  Alcotest.(check int) "fd numbers restart after the crash" fd fd'';
  Alcotest.(check int) "still open" 5 (Client.c_read c fd'' buf 5);
  Alcotest.(check int) "nothing carried" 0 (Server.closes_carried server)

let test_sync_closes_keep_round_trip () =
  let _, fs, server, net = mk () in
  let c = mk_client server net 74L in
  Client.write_file c "/f" (Bytes.of_string "v1");
  Client.c_begin c;
  let fd = Client.c_open c "/f" Fs.Rdwr in
  ignore (Client.c_write c fd (Bytes.of_string "v2") 2 : int);
  let before = Netsim.messages net in
  Client.c_close c fd;
  Alcotest.(check int) "closing a written fd in a transaction is a round trip" (before + 2)
    (Netsim.messages net);
  Client.c_commit c;
  let ts = Client.c_snapshot c in
  let fd = Client.c_open c ~timestamp:ts "/f" Fs.Rdonly in
  let db = Fs.db fs in
  Alcotest.(check bool) "the As_of fd holds a lease" true
    (Relstore.Db.oldest_lease db <> None);
  let before = Netsim.messages net in
  Client.c_close c fd;
  Alcotest.(check int) "an As_of close is a round trip" (before + 2) (Netsim.messages net);
  Alcotest.(check bool) "lease released before c_close returns" true
    (Relstore.Db.oldest_lease db = None);
  Alcotest.(check int) "nothing held" 0 (Client.closes_held c);
  Alcotest.(check int) "nothing carried" 0 (Server.closes_carried server)

(* ---- carried Begin ---- *)

let active_txns fs = Relstore.Status_log.active (Relstore.Db.status_log (Fs.db fs))

let test_begin_held_until_next_request () =
  let _, fs, server, net = mk () in
  let c = mk_client server net 75L in
  let before = Netsim.messages net in
  Client.c_begin c;
  Alcotest.(check int) "the Begin sent nothing" before (Netsim.messages net);
  Alcotest.(check bool) "a held Begin is an open transaction" true (Client.in_txn c);
  Alcotest.(check int) "held" 1 (Client.begins_held c);
  Alcotest.(check (list int)) "no server transaction yet" [] (active_txns fs);
  ignore (expect_error E.ETXN (fun () -> Client.c_begin c) : string);
  let fd = Client.c_creat c "/f" in
  Alcotest.(check int) "one round trip carried it" (before + 2) (Netsim.messages net);
  Alcotest.(check int) "run by the server" 1 (Server.begins_carried server);
  Alcotest.(check int) "one server transaction" 1 (List.length (active_txns fs));
  (* an unwritten fd's close in the transaction is held too... *)
  let before = Netsim.messages net in
  Client.c_close c fd;
  Alcotest.(check int) "closing a c_creat fd sends nothing" before (Netsim.messages net);
  (* ...a written one's flushes and keeps its round trip *)
  let fd = Client.c_open c "/f" Fs.Rdwr in
  ignore (Client.c_write c fd (Bytes.of_string "data") 4 : int);
  let before = Netsim.messages net in
  Client.c_close c fd;
  Alcotest.(check int) "closing a written fd is a round trip" (before + 2) (Netsim.messages net);
  Client.c_commit c;
  Alcotest.(check bool) "committed" false (Client.in_txn c);
  Alcotest.(check string) "contents" "data" (Bytes.to_string (Client.read_whole_file c "/f"));
  (* a held-only Begin aborts without a message *)
  Client.c_begin c;
  let before = Netsim.messages net in
  Client.c_abort c;
  Alcotest.(check int) "abort of a held Begin sends nothing" before (Netsim.messages net);
  Alcotest.(check bool) "out of the transaction" false (Client.in_txn c);
  Alcotest.(check bool) "the next request opens none" true (Client.c_exists c "/f");
  Alcotest.(check int) "still one carried" 1 (Server.begins_carried server);
  Alcotest.(check (list int)) "no server transaction" [] (active_txns fs)

let test_shed_compound_opens_no_txn () =
  let _, fs, server, net = mk ~run_cap:1 () in
  let r = raw_connect server net in
  let carry req = Wire.Carry { begin_txn = true; closes = []; req } in
  ignore (raw_send r (Wire.Mkdir { path = "/a" }) : int64);
  let rid_b = raw_send r (carry (Wire.Mkdir { path = "/b" })) in
  Server.pump server;
  (match raw_reply r rid_b with
  | Wire.Overloaded _ -> ()
  | _ -> Alcotest.fail "the compound should shed at the queue bound");
  Alcotest.(check (list int)) "a shed compound leaves no transaction open" [] (active_txns fs);
  Alcotest.(check int) "Begin not run" 0 (Server.begins_carried server);
  ignore (raw_send ~rid:rid_b ~retry:true r (carry (Wire.Mkdir { path = "/b" })) : int64);
  Server.pump server;
  (match raw_reply r rid_b with
  | Wire.Ok_reply { txn_open = true; _ } -> ()
  | _ -> Alcotest.fail "the re-offer should run inside a new transaction");
  Alcotest.(check int) "Begin ran once" 1 (Server.begins_carried server);
  Alcotest.(check int) "one transaction" 1 (List.length (active_txns fs));
  ignore (raw_ok r server Wire.Commit : Wire.result);
  (* with parking full, a carried read that blocks is shed after its
     Begin ran: the Begin is rolled back with it *)
  let _, fs, server, net = mk ~park_cap:0 ~lock_wait_s:1000. () in
  Fs.write_file (Fs.new_session fs) "/f" (Bytes.of_string "data");
  let w = raw_connect server net in
  ignore (raw_ok w server Wire.Begin : Wire.result);
  let wfd = raw_fd w server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_ok w server (Wire.Ftruncate { fd = wfd; size = 0L }) : Wire.result);
  let r = raw_connect server net in
  let fd = raw_fd r server (Wire.Open { path = "/f"; mode = 0; timestamp = None }) in
  let read = carry (Wire.Read { fd; off = 0L; len = 4 }) in
  let rid = raw_send r read in
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Overloaded _ -> ()
  | _ -> Alcotest.fail "no parking slot: the blocked read should shed");
  Alcotest.(check int) "only the writer's transaction" 1 (List.length (active_txns fs));
  Alcotest.(check int) "the rolled-back Begin is not counted" 0 (Server.begins_carried server);
  ignore (raw_ok w server Wire.Commit : Wire.result);
  ignore (raw_send ~rid ~retry:true r read : int64);
  Server.pump server;
  (match raw_reply r rid with
  | Wire.Ok_reply { txn_open = true; result = Wire.R_data "" } -> ()
  | _ -> Alcotest.fail "the re-offered read should run in a fresh transaction");
  Alcotest.(check int) "Begin kept once" 1 (Server.begins_carried server)

let test_parked_compound_runs_begin_once () =
  let _, fs, server, net = mk ~lock_wait_s:1000. () in
  Fs.write_file (Fs.new_session fs) "/f" (Bytes.of_string "data");
  let w = raw_connect server net in
  ignore (raw_ok w server Wire.Begin : Wire.result);
  let wfd = raw_fd w server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_ok w server (Wire.Ftruncate { fd = wfd; size = 2L }) : Wire.result);
  let r = raw_connect server net in
  let fd = raw_fd r server (Wire.Open { path = "/f"; mode = 0; timestamp = None }) in
  let rid =
    raw_send r
      (Wire.Carry { begin_txn = true; closes = []; req = Wire.Read { fd; off = 0L; len = 4 } })
  in
  Server.pump server;
  Alcotest.(check int) "the carried read parked" 1 (Server.parked_now server);
  Alcotest.(check int) "its Begin ran" 1 (Server.begins_carried server);
  (* the writer commits: the parked read re-executes, without re-running
     Begin (a second p_begin would answer ETXN) *)
  ignore (raw_ok w server Wire.Commit : Wire.result);
  (match raw_reply r rid with
  | Wire.Ok_reply { txn_open = true; result = Wire.R_data "da" } -> ()
  | Wire.Err_reply { code; msg; _ } ->
    Alcotest.fail (Printf.sprintf "resumed read failed: %s %s" (E.code_to_string code) msg)
  | _ -> Alcotest.fail "the parked read should resume inside its transaction");
  Alcotest.(check int) "Begin ran once" 1 (Server.begins_carried server);
  Alcotest.(check int) "one resume" 1 (Server.park_resumes server);
  ignore (raw_ok r server Wire.Commit : Wire.result);
  Alcotest.(check (list int)) "all committed" [] (active_txns fs)

let test_session_lost_with_begin_held () =
  let _, fs, server, net = mk () in
  let c = mk_client server net 76L in
  Client.write_file c "/f" (Bytes.of_string "stable");
  (* a transaction that is still only a held Begin outlives the session:
     the request that carried it is reissued with it, whatever its kind,
     just as a Begin of its own would have been reissued first *)
  Client.c_begin c;
  Server.crash_now server;
  Client.c_mkdir c "/d";
  Alcotest.(check bool) "inside the transaction" true (Client.in_txn c);
  Alcotest.(check int) "one server transaction" 1 (List.length (active_txns fs));
  Client.c_abort c;
  Alcotest.(check bool) "the mkdir died with the abort" false (Client.c_exists c "/d");
  Client.c_begin c;
  Server.crash_now server;
  Alcotest.(check bool) "a lookup too" true (Client.c_exists c "/f");
  Alcotest.(check bool) "still inside" true (Client.in_txn c);
  (* once the Begin has reached the server the loss is reported *)
  Server.crash_now server;
  let msg = expect_error E.ECONNRESET (fun () -> Client.c_mkdir c "/e") in
  Alcotest.(check bool) "told it was aborted" true
    (let suffix = "transaction aborted" in
     String.length msg >= String.length suffix
     && String.sub msg (String.length msg - String.length suffix) (String.length suffix)
        = suffix);
  Alcotest.(check bool) "client left the transaction" false (Client.in_txn c);
  Alcotest.(check bool) "nothing created" false (Client.c_exists c "/e");
  Alcotest.(check (list int)) "no transaction left open" [] (active_txns fs)

(* A compound the server refused without running it (shed, deadline)
   leaves the caller's transaction open as the held Begin: a retry of
   the refused call runs inside it, not on its own. *)
let test_refused_compound_keeps_begin () =
  let clock, fs, server, net = mk ~run_cap:1 ~lock_wait_s:1000. () in
  let setup = mk_client server net 77L in
  Client.write_file setup "/f" (Bytes.of_string "data");
  (* pin the queue at run_cap with a parked truncate, as in the retry
     budget test *)
  let a = raw_connect server net in
  ignore (raw_ok a server Wire.Begin : Wire.result);
  let fd_a = raw_fd a server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_ok a server (Wire.Ftruncate { fd = fd_a; size = 0L }) : Wire.result);
  let b = raw_connect server net in
  let fd_b = raw_fd b server (Wire.Open { path = "/f"; mode = 1; timestamp = None }) in
  ignore (raw_send b (Wire.Ftruncate { fd = fd_b; size = 1L }) : int64);
  Server.pump server;
  let config =
    { Client.default_config with Client.retry_budget = 1; retry_refill_per_s = 0. }
  in
  let c = mk_client ~config server net 78L in
  Client.c_begin c;
  ignore (expect_error E.EBUSY (fun () -> Client.c_creat c "/x") : string);
  Alcotest.(check bool) "still in the transaction" true (Client.in_txn c);
  Alcotest.(check bool) "as the held Begin" true (Client.begin_held c);
  ignore (raw_ok a server Wire.Abort : Wire.result);
  let fd = Client.c_creat c "/x" in
  Alcotest.(check bool) "the retry ran in a server transaction" true
    (Client.in_txn c && not (Client.begin_held c));
  Client.c_close c fd;
  Client.c_abort c;
  Alcotest.(check bool) "the abort undid it" false (Client.c_exists c "/x");
  (* a deadline the request outlives on the wire: the server rejects it
     before running the Begin *)
  Client.c_begin c;
  Client.set_deadline c (Some (Simclock.Clock.now clock +. 1e-6));
  ignore (expect_error E.ETIMEDOUT (fun () -> Client.c_mkdir c "/y") : string);
  Alcotest.(check bool) "the rejection left the Begin held" true (Client.begin_held c);
  Client.set_deadline c None;
  Client.c_mkdir c "/y";
  Client.c_abort c;
  Alcotest.(check bool) "nothing committed" false (Client.c_exists c "/y");
  Alcotest.(check (list int)) "no transaction left open" [] (active_txns fs)

(* ---- compound framing and the bounded reassembly table ---- *)

let every_request =
  let s = "/x/y" in
  Wire.
    [
      Hello; Bye; Ping; Begin; Commit; Abort;
      Creat { path = s; device = Some "disk0"; ftype = Some "text"; compressed = true };
      Open { path = s; mode = 1; timestamp = Some 42L };
      Close { fd = 3 };
      Read { fd = 3; off = 10L; len = 100 };
      Write { fd = 3; off = 0L; data = "payload" };
      Ftruncate { fd = 3; size = 9L };
      Filesize { fd = 3 };
      Mkdir { path = s };
      Readdir { path = s; timestamp = None };
      Unlink { path = s };
      Rmdir { path = s };
      Rename { src = s; dst = "/z" };
      Stat { path = s; timestamp = Some 7L };
      Exists { path = s; timestamp = None };
      Query { text = "retrieve (filename) where size(file) > 0"; timestamp = None };
      Set_owner { path = s; owner = "olson" };
      Set_type { path = s; ftype = "text" };
      Define_type { name = "image" };
      Crash_server;
      Heartbeat { shard = 1; epoch = 2 };
      Get_placement;
      Shard_read { oid = 5L; off = 0L; len = 64; epoch = 1 };
      Shard_write { oid = 5L; off = 0L; data = "abc"; epoch = 1 };
      Shard_truncate { oid = 5L; size = 0L; epoch = 1 };
      Fetch_chunks { oid = 5L };
      Migrate_in { oid = 5L; epoch = 1; data = "abc" };
      Drop_bucket { bucket = 2; epoch = 1 };
      Snapshot;
      Clone { src = s; dst = "/c" };
      Vacuum_step { pages = 4 };
    ]

let every_compound =
  List.concat_map
    (fun req ->
      if Wire.control_plane req then []
      else
        List.map
          (fun (begin_txn, n) ->
            Wire.Carry { begin_txn; closes = List.init n (fun i -> 3 + i); req })
          ((if req = Wire.Begin then [] else [ (true, 0); (true, 2) ])
          @ [ (false, 0); (false, 1); (false, Wire.max_carried_closes) ]))
    every_request

let every_reply =
  let att =
    {
      Invfs.Fileatt.file = 9L;
      size = 100L;
      owner = "o";
      ftype = "t";
      device = "disk0";
      index_segid = -1;
      compressed = false;
      ctime = 1L;
      mtime = 2L;
      atime = 3L;
    }
  in
  Wire.
    [
      Ok_reply { txn_open = false; result = R_unit };
      Ok_reply { txn_open = true; result = R_sid 4L };
      Ok_reply { txn_open = false; result = R_fd 3 };
      Ok_reply { txn_open = false; result = R_int 12L };
      Ok_reply { txn_open = false; result = R_bool true };
      Ok_reply { txn_open = false; result = R_data "bytes" };
      Ok_reply { txn_open = false; result = R_names [ "a"; "b" ] };
      Ok_reply { txn_open = false; result = R_rows [ [ "a"; "1" ]; [] ] };
      Ok_reply { txn_open = false; result = R_att att };
      Ok_reply
        {
          txn_open = false;
          result = R_placement { p_epoch = 2; p_owner = [| 1; 2 |]; p_handoff = [ 1 ] };
        };
      Err_reply { txn_open = true; code = E.EAGAIN; msg = "busy" };
      Io_fault_reply { txn_open = false };
      Unknown_session;
      Overloaded { retry_after_s = 0.25 };
      Unsupported { opcode = 99 };
      Wrong_shard { epoch = 3 };
    ]

let request_payload req = assemble (Wire.encode_request ~sid:5L ~rid:9L req)

(* Overwrite a frame's CRC field with the checksum of its current bytes. *)
let reseal b =
  for i = 32 to 35 do
    Bytes.set b i '\000'
  done;
  let crc = Wire.crc32 b ~off:0 ~len:(Bytes.length b) in
  Bytes.set b 32 (Char.chr (Int32.to_int (Int32.shift_right_logical crc 24) land 0xff));
  Bytes.set b 33 (Char.chr (Int32.to_int (Int32.shift_right_logical crc 16) land 0xff));
  Bytes.set b 34 (Char.chr (Int32.to_int (Int32.shift_right_logical crc 8) land 0xff));
  Bytes.set b 35 (Char.chr (Int32.to_int crc land 0xff))

let set_i32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let test_compound_codec () =
  List.iter
    (fun req ->
      let name = Wire.req_name req in
      (match Wire.decode_request_any (request_payload req) with
      | `Req got when got = req -> ()
      | _ -> Alcotest.fail (name ^ ": compound did not roundtrip"));
      let inner = match req with Wire.Carry { req; _ } -> req | r -> r in
      let frames r = Wire.encode_request ~sid:5L ~rid:9L r in
      Alcotest.(check int) (name ^ ": framed like the carried request")
        (List.length (frames inner)) (List.length (frames req)))
    every_compound;
  (* wrapping must not tip a write that exactly fills one frame into a
     second frame plus an end-of-stream trailer *)
  let overhead = String.length (request_payload (Wire.Write { fd = 1; off = 0L; data = "" })) in
  let full =
    Wire.Write { fd = 1; off = 0L; data = String.make (Wire.max_fragment - overhead) 'w' }
  in
  let closes = List.init Wire.max_carried_closes (fun i -> 3 + i) in
  Alcotest.(check int) "a full frame stays one frame" 1
    (List.length (Wire.encode_request ~sid:1L ~rid:1L (Wire.Carry { begin_txn = true; closes; req = full })));
  let big = Wire.Write { fd = 1; off = 0L; data = String.make (3 * Wire.max_fragment) 'w' } in
  Alcotest.(check int) "a windowed upload keeps its frame count and trailer"
    (List.length (Wire.encode_request ~sid:1L ~rid:1L big))
    (List.length
       (Wire.encode_request ~sid:1L ~rid:1L (Wire.Carry { begin_txn = false; closes; req = big })));
  (match
     Wire.decode_request_any
       (request_payload (Wire.Carry { begin_txn = true; closes; req = big }))
   with
  | `Req (Wire.Carry { req = got; _ }) when got = big -> ()
  | _ -> Alcotest.fail "a fragmented compound did not reassemble");
  let malformed what payload =
    match Wire.decode_request_any payload with
    | `Malformed -> ()
    | _ -> Alcotest.fail (what ^ " should be malformed")
  in
  let mkdir = Wire.Mkdir { path = "/d" } in
  let carry ?(begin_txn = false) closes req = Wire.Carry { begin_txn; closes; req } in
  malformed "a nested compound"
    (request_payload (carry [ 3 ] (carry ~begin_txn:true [ 4 ] mkdir)));
  malformed "two Begins" (request_payload (carry ~begin_txn:true [] Wire.Begin));
  List.iter
    (fun req ->
      if Wire.control_plane req then
        malformed ("a carried " ^ Wire.req_name req) (request_payload (carry [ 3 ] req)))
    every_request;
  (* the count is the three bytes after the flag; flag 0 keeps the
     flag check out of the way *)
  List.iter
    (fun n ->
      let b = Bytes.of_string (request_payload (carry [ 3 ] mkdir)) in
      Bytes.set b 2 (Char.chr ((n lsr 16) land 0xff));
      Bytes.set b 3 (Char.chr ((n lsr 8) land 0xff));
      Bytes.set b 4 (Char.chr (n land 0xff));
      malformed (Printf.sprintf "count %d" n) (Bytes.to_string b))
    [ Wire.max_carried_closes + 1; 0x800000; 0xffffff ];
  (* the Begin flag is one byte, 0 or 1 *)
  List.iter
    (fun flag ->
      let b = Bytes.of_string (request_payload (carry ~begin_txn:true [ 3 ] mkdir)) in
      Bytes.set b 1 (Char.chr flag);
      malformed (Printf.sprintf "flag %d" flag) (Bytes.to_string b))
    [ 2; 0x80; 0xff ];
  (* a pre-flag close count of -1 or 2^31-1 lands in the flag byte *)
  List.iter
    (fun (what, v) ->
      let b = Bytes.of_string (request_payload (carry [ 3 ] mkdir)) in
      set_i32 b 1 v;
      malformed what (Bytes.to_string b))
    [ ("flag 0xff, count 0xffffff", -1); ("flag 0x7f, count 0xffffff", 0x7fffffff) ];
  (* a Begin costs no byte: the flag shares the count's four bytes *)
  Alcotest.(check int) "same size with and without a Begin"
    (String.length (request_payload (carry [ 3 ] mkdir)))
    (String.length (request_payload (carry ~begin_txn:true [ 3 ] mkdir)))

let test_assembly_bounded () =
  let asm = Wire.Assembly.create () in
  let lone rid =
    { Wire.kind = 0; sid = 1L; rid; frame_ix = 0; nframes = 0xffff; retry = false;
      deadline_us = 0L; payload = "x" }
  in
  let before = Gc.allocated_bytes () in
  for i = 1 to 10_000 do
    match Wire.Assembly.add asm (lone (Int64.of_int i)) with
    | `Pending -> ()
    | `Complete _ -> Alcotest.fail "a lone fragment completed a message"
  done;
  Alcotest.(check int) "the table stops at the cap" Wire.Assembly.max_pending
    (Wire.Assembly.pending asm);
  (* one announced 65,535-frame message may not reserve a frame table:
     10,000 of them stay far below one 512 KB array each *)
  Alcotest.(check bool) "no per-announcement reservation" true
    (Gc.allocated_bytes () -. before < 64e6);
  let data = String.init (2 * Wire.max_fragment) (fun i -> Char.chr (i land 0xff)) in
  let frames = Wire.encode_request ~sid:1L ~rid:20_000L (Wire.Write { fd = 3; off = 0L; data }) in
  let complete =
    List.fold_left
      (fun acc f ->
        match Wire.decode_header f with
        | None -> Alcotest.fail "frame failed parse/CRC"
        | Some h -> (match Wire.Assembly.add asm h with `Complete p -> Some p | `Pending -> acc))
      None frames
  in
  match Option.map Wire.decode_request complete with
  | Some (Some (Wire.Write w)) -> Alcotest.(check bool) "reassembled intact" true (w.data = data)
  | _ -> Alcotest.fail "a complete request did not reassemble after the flood"

(* ---- the decoder fuzzer: only structured outcomes may escape ---- *)

let mutate st s =
  let n = String.length s in
  let b = Bytes.of_string s in
  match Random.State.int st 4 with
  | 0 -> String.sub s 0 (if n = 0 then 0 else Random.State.int st n)
  | 1 -> s ^ String.init (1 + Random.State.int st 16) (fun _ -> Char.chr (Random.State.int st 256))
  | 2 ->
    for _ = 0 to Random.State.int st 4 do
      if n > 0 then begin
        let i = Random.State.int st n in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Random.State.int st 255)))
      end
    done;
    Bytes.to_string b
  | _ ->
    (* a count or length field set to a hostile value; offset 1 is a
       compound's Begin flag and close count *)
    if n >= 5 then begin
      let off = if Random.State.bool st then 1 else Random.State.int st (n - 3) in
      let v = [| -1; Wire.max_carried_closes + 1; 0x7fffffff |].(Random.State.int st 3) in
      set_i32 b off v
    end;
    Bytes.to_string b

let fuzz_inputs =
  Array.of_list
    (List.map (fun r -> `Request r) (every_request @ every_compound)
    @ List.map (fun r -> `Reply r) every_reply)

(* One server and one connection for the whole run; each case starts
   with a fresh handshake, because a mutated Hello, Bye or Crash_server
   may have ended the previous session. *)
let fuzz_conn =
  lazy
    (let _, _, server, net = mk () in
     (server, raw_connect server net))

let rehello server r =
  raw_nonce := Int64.add !raw_nonce 1L;
  let rid = raw_send ~rid:!raw_nonce r Wire.Hello in
  Server.pump server;
  match raw_reply r rid with
  | Wire.Ok_reply { result = Wire.R_sid sid; _ } -> r.r_sid <- sid
  | _ -> Alcotest.fail "raw hello failed"

let prop_decoders_never_raise =
  QCheck.Test.make ~name:"mutated wire input never raises" ~count:2000
    QCheck.(pair (int_bound (Array.length fuzz_inputs - 1)) int)
    (fun (ix, seed) ->
      let st = Random.State.make [| seed |] in
      let frames =
        match fuzz_inputs.(ix) with
        | `Request r -> Wire.encode_request ~sid:5L ~rid:9L r
        | `Reply r -> Wire.encode_reply ~sid:5L ~rid:9L r
      in
      let payload = assemble frames in
      let m = mutate st payload in
      (match Wire.decode_request_any m with `Req _ | `Unknown _ | `Malformed -> ());
      (match Wire.decode_reply m with Some _ | None -> ());
      let frame = mutate st (List.hd frames) in
      (match Wire.decode_header frame with Some _ | None -> ());
      (* the same damage re-sealed so it passes the CRC, addressed to a
         live session, pumped through the server: once as a damaged
         frame, once as a damaged payload in a sound frame *)
      let server, r = Lazy.force fuzz_conn in
      rehello server r;
      let sound = List.hd (Wire.encode_request ~sid:r.r_sid ~rid:1L Wire.Ping) in
      let b = Bytes.of_string frame in
      if Bytes.length b >= Wire.header_bytes then begin
        Bytes.blit_string sound 8 b 8 8;
        reseal b
      end;
      Link.send r.r_link Link.To_server (Bytes.to_string b);
      Server.pump server;
      let b = Bytes.of_string (String.sub sound 0 Wire.header_bytes ^ m) in
      set_i32 b 28 (String.length m);
      reseal b;
      Link.send r.r_link Link.To_server (Bytes.to_string b);
      Server.pump server;
      ignore (raw_replies r : (int64 * Wire.reply) list);
      true)

let () =
  Alcotest.run "remote"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip + fragmentation" `Quick test_wire_roundtrip;
          Alcotest.test_case "crc rejects corruption" `Quick test_wire_crc_rejects_corruption;
          Alcotest.test_case "empty payload" `Quick test_wire_empty_payload;
          Alcotest.test_case "payload at fragment boundary" `Quick
            test_wire_boundary_payload;
          Alcotest.test_case "maximum-size frame roundtrip" `Quick
            test_wire_max_frame_roundtrip;
          Alcotest.test_case "duplicate fragments ignored" `Quick
            test_wire_duplicate_fragments;
          Alcotest.test_case "unknown opcode answers Unsupported" `Quick
            test_unknown_opcode_unsupported;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "basic session" `Quick test_basic_session;
          Alcotest.test_case "duplicate write applied once" `Quick
            test_duplicate_write_applied_once;
          Alcotest.test_case "lost commit reply replayed" `Quick
            test_lost_commit_reply_retries_replay;
          Alcotest.test_case "corrupt frame retried" `Quick test_corrupt_frame_retried;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "reads allocate only the bytes read" `Quick
            test_reads_allocate_only_bytes_read;
        ] );
      ( "sessions",
        [
          Alcotest.test_case "mid-txn death is a clean abort" `Quick
            test_session_death_mid_txn_clean_abort;
          Alcotest.test_case "server crash mid-request" `Quick
            test_server_crash_mid_request;
          Alcotest.test_case "lease expiry frees locks" `Quick
            test_lease_expiry_frees_locks;
          Alcotest.test_case "transparent reissue of reads" `Quick
            test_transparent_reissue_after_crash;
          Alcotest.test_case "crash_server admin op" `Quick test_crash_server_op;
        ] );
      ( "overload",
        [
          Alcotest.test_case "queue bound sheds, re-offer admitted" `Quick
            test_overload_shed_and_reoffer;
          Alcotest.test_case "watermark sheds retransmissions first" `Quick
            test_watermark_sheds_retries_first;
          Alcotest.test_case "expired deadline refused and recorded" `Quick
            test_deadline_reject_recorded;
          Alcotest.test_case "deadline expiring in the queue" `Quick
            test_deadline_expires_in_queue;
          Alcotest.test_case "client retry budget exhausts to EBUSY" `Quick
            test_retry_budget_exhaustion;
          Alcotest.test_case "client deadline fails fast off the wire" `Quick
            test_client_deadline_failfast;
          Alcotest.test_case "overload machinery is deterministic" `Quick
            test_overload_determinism;
          Alcotest.test_case "jittered retry-after desynchronizes" `Quick
            test_retry_after_jitter_desyncs;
        ] );
      ( "parking",
        [
          Alcotest.test_case "lock-wait timeout expires a parked request" `Quick
            test_park_timeout_expires;
          Alcotest.test_case "parked deadlock victim aborts cleanly" `Quick
            test_parked_deadlock_victim;
        ] );
      ( "snapshots and clones",
        [
          Alcotest.test_case "snapshot + clone over the wire" `Quick
            test_remote_snapshot_and_clone;
          Alcotest.test_case "write_many is atomic" `Quick test_write_many_atomic;
          Alcotest.test_case "vacuum step RPC" `Quick test_remote_vacuum_step_rpc;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "commit replies ride the batch force" `Quick
            test_group_commit_defers_replies;
        ] );
      ( "carried begin",
        [
          Alcotest.test_case "begin held until the next request" `Quick
            test_begin_held_until_next_request;
          Alcotest.test_case "shed compound opens no transaction" `Quick
            test_shed_compound_opens_no_txn;
          Alcotest.test_case "parked compound runs begin once" `Quick
            test_parked_compound_runs_begin_once;
          Alcotest.test_case "refused compound keeps its begin" `Quick
            test_refused_compound_keeps_begin;
          Alcotest.test_case "session lost with a begin held" `Quick
            test_session_lost_with_begin_held;
        ] );
      ( "close-behind",
        [
          Alcotest.test_case "close held until the next request" `Quick
            test_close_held_until_next_request;
          Alcotest.test_case "carried once under duplicate and drop" `Quick
            test_carried_once_under_faults;
          Alcotest.test_case "held close never reaches a new session" `Quick
            test_held_close_never_reaches_new_session;
          Alcotest.test_case "txn and As_of closes keep their round trip" `Quick
            test_sync_closes_keep_round_trip;
          Alcotest.test_case "compound codec and framing" `Quick test_compound_codec;
          Alcotest.test_case "reassembly table is bounded" `Quick test_assembly_bounded;
        ] );
      ("wire fuzz", [ QCheck_alcotest.to_alcotest prop_decoders_never_raise ]);
    ]
