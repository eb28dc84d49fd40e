(* The structural audit: clean baselines, detection of deliberately
   corrupted heap pages and B-tree indexes, and repair via recovery. *)

module P = Pagestore.Page
module D = Pagestore.Device
module Db = Relstore.Db
module Fs = Invfs.Fs
module Fsck = Invfs.Fsck
module Rec = Invfs.Recovery

let bytes_of = Bytes.of_string
let str = Bytes.to_string

let make_fs () =
  let clock = Simclock.Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  ignore
    (Pagestore.Switch.add_device switch ~name:"disk0" ~kind:D.Magnetic_disk ()
      : D.t);
  let db = Relstore.Db.create ~switch ~clock () in
  Fs.make db ()

let populated () =
  let fs = make_fs () in
  let s = Fs.new_session fs in
  Fs.mkdir s "/docs";
  Fs.write_file s "/docs/report" (bytes_of "quarterly numbers");
  Fs.write_file s "/notes" (Bytes.make (Invfs.Chunk.capacity * 2) 'n');
  (fs, s)

let file_heap fs path s =
  let att = Fs.stat s path in
  let inv = Option.get (Fs.file_handle fs ~oid:att.Invfs.Fileatt.file) in
  (att, Invfs.Inv_file.heap inv)

let test_clean_baseline () =
  let fs, _ = populated () in
  let r = Fsck.audit fs in
  Alcotest.(check bool) ("clean: " ^ Fsck.report_to_string r) true (Fsck.is_clean r);
  Alcotest.(check bool) "files were checked" true (r.Fsck.files_checked >= 3)

let test_clean_after_plain_crash () =
  let fs, s = populated () in
  Fs.p_begin s;
  Fs.write_file s "/doomed" (bytes_of "never committed");
  Fs.crash fs;
  let r = Fsck.audit fs in
  Alcotest.(check bool)
    ("post-crash audit clean: " ^ Fsck.report_to_string r)
    true (Fsck.is_clean r)

let test_corrupted_heap_page_detected () =
  let fs, s = populated () in
  let att, heap = file_heap fs "/docs/report" s in
  let dev = Relstore.Heap.device heap in
  let segid = Relstore.Heap.segid heap in
  (* flip bytes in the durable image of the first non-empty heap block *)
  let corrupted = ref false in
  for blkno = 0 to Relstore.Heap.nblocks heap - 1 do
    if not !corrupted then begin
      let page = D.peek_block dev ~segid ~blkno in
      if P.to_bytes page <> Bytes.make P.size '\000' then begin
        P.set_u8 page 512 (P.get_u8 page 512 lxor 0xFF);
        D.poke_block dev ~segid ~blkno page;
        corrupted := true
      end
    end
  done;
  Alcotest.(check bool) "found a block to corrupt" true !corrupted;
  (* drop the caches so the audit reads the damaged durable image *)
  Fs.crash fs;
  let r = Fsck.audit fs in
  Alcotest.(check bool) "audit flags the damage" false (Fsck.is_clean r);
  let relname = Invfs.Inv_file.relname att.Invfs.Fileatt.file in
  Alcotest.(check bool) "problem names the relation" true
    (List.exists (fun p -> String.equal p.Fsck.relation relname) r.Fsck.problems)

let test_corrupted_index_detected_and_rebuilt () =
  let fs, s = populated () in
  let att, heap = file_heap fs "/notes" s in
  let oid = att.Invfs.Fileatt.file in
  let dev = Relstore.Heap.device heap in
  (* zero the chunk index's meta page in the durable image *)
  D.poke_block dev ~segid:att.Invfs.Fileatt.index_segid ~blkno:0 (P.create ());
  (* a machine crash now: caches drop, reads hit the zeroed meta page *)
  Fs.crash fs;
  let inv = Option.get (Fs.file_handle fs ~oid) in
  (match Invfs.Inv_file.index_check inv with
  | Ok () -> Alcotest.fail "index_check missed the zeroed meta page"
  | Error _ -> ());
  let audit = Fsck.audit fs in
  Alcotest.(check bool) "audit flags the index" false (Fsck.is_clean audit);
  (* whole-system recovery detects the damage and rebuilds from the heap *)
  let report = Rec.crash_and_recover fs in
  Alcotest.(check bool) "index rebuilt for the file" true
    (List.mem oid report.Rec.file_indexes_rebuilt);
  Alcotest.(check bool)
    ("recovery ends clean: " ^ Rec.report_to_string report)
    true (Rec.is_clean report);
  let s = Fs.new_session fs in
  Alcotest.(check string) "contents readable through rebuilt index"
    (String.make (Invfs.Chunk.capacity * 2) 'n')
    (str (Fs.read_whole_file s "/notes"))

let test_catalog_index_rebuild () =
  let fs, s = populated () in
  Fs.write_file s "/more" (bytes_of "more data");
  (* damage the naming catalog's B-trees in memory the way a crash does,
     then let recovery prove it can rebuild them from the heap *)
  Invfs.Naming.crash_reset (Fs.naming_catalog fs);
  (match Invfs.Naming.index_check (Fs.naming_catalog fs) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "naming index dirty before damage: %s" msg);
  let report = Rec.crash_and_recover fs in
  Alcotest.(check bool)
    ("recovery clean: " ^ Rec.report_to_string report)
    true (Rec.is_clean report);
  let s = Fs.new_session fs in
  Alcotest.(check string) "namespace intact" "more data"
    (str (Fs.read_whole_file s "/more"))

(* ---- the cross-shard placement walk (pure: inputs built by hand) ----

   Two shards, four buckets: bucket = oid mod 4, owner = 1 + (bucket mod
   2).  oids 0,2 -> shard 1; oids 1,3 -> shard 2. *)

let audit ?(owner = [| 1; 2; 1; 2 |]) ?(handoff = []) ?(drops = []) ~named ~resident
    () =
  Fsck.cross_shard_audit ~nshards:2 ~owner ~handoff ~drops
    ~bucket_of:(fun oid -> Int64.to_int (Int64.rem oid 4L))
    ~named ~resident

let problems r = List.map (fun p -> p.Fsck.relation) r.Fsck.sh_problems

let test_shard_audit_clean () =
  let r =
    audit ~named:[ 0L; 1L; 2L; 7L ]
      ~resident:[ (1, Some [ 0L; 2L ]); (2, Some [ 1L; 7L ]) ]
      ()
  in
  Alcotest.(check bool) ("clean: " ^ Fsck.shard_report_to_string r) true
    (Fsck.is_shard_clean r);
  Alcotest.(check int) "files" 4 r.Fsck.sh_files_checked;
  Alcotest.(check int) "copies" 4 r.Fsck.sh_copies_checked;
  (* a never-written file (no copy anywhere) is legitimate *)
  let r = audit ~named:[ 0L ] ~resident:[ (1, Some []); (2, Some []) ] () in
  Alcotest.(check bool) "empty file clean" true (Fsck.is_shard_clean r)

let test_shard_audit_stray_and_missing () =
  (* oid 0 belongs on shard 1 but only shard 2 holds it: one stray copy
     on shard 2, one missing-from-authority on shard 1 *)
  let r = audit ~named:[ 0L ] ~resident:[ (1, Some []); (2, Some [ 0L ]) ] () in
  Alcotest.(check bool) "unclean" false (Fsck.is_shard_clean r);
  Alcotest.(check (list string)) "both sides named" [ "shard1"; "shard2" ]
    (List.sort compare (problems r));
  (* the same copy excused by an in-flight handoff whose source is 2:
     bucket 0 moving 2 -> 1, map already points at 1 *)
  let r =
    audit ~handoff:[ (0, 2, 1) ] ~named:[ 0L ]
      ~resident:[ (1, Some []); (2, Some [ 0L ]) ]
      ()
  in
  Alcotest.(check bool) ("handoff source is authority: " ^ Fsck.shard_report_to_string r)
    true (Fsck.is_shard_clean r);
  (* ...and by a queued drop once the migration committed *)
  let r =
    audit ~drops:[ (0, 2) ] ~named:[ 0L ]
      ~resident:[ (1, Some [ 0L ]); (2, Some [ 0L ]) ]
      ()
  in
  Alcotest.(check bool) "queued drop excuses the stale copy" true
    (Fsck.is_shard_clean r)

let test_shard_audit_degraded_not_unclean () =
  (* shard 2 unreachable: its files cannot be audited — degraded shape,
     reported but clean, exactly like a dead unmirrored device *)
  let r = audit ~named:[ 0L; 1L ] ~resident:[ (1, Some [ 0L ]); (2, None) ] () in
  Alcotest.(check bool) ("degraded is clean: " ^ Fsck.shard_report_to_string r) true
    (Fsck.is_shard_clean r);
  Alcotest.(check (list string)) "reported unreachable" [ "shard2" ]
    r.Fsck.sh_unreachable;
  Alcotest.(check int) "only reachable copies counted" 1 r.Fsck.sh_copies_checked

let test_shard_audit_malformed_map () =
  let r =
    audit
      ~owner:[| 1; 9; 1; 2 |] (* bucket 1 owned by a shard that does not exist *)
      ~handoff:[ (2, 1, 1) ] (* self-handoff *)
      ~named:[] ~resident:[ (1, Some []); (2, Some []) ] ()
  in
  Alcotest.(check bool) "unclean" false (Fsck.is_shard_clean r);
  Alcotest.(check bool) "all problems are the map's" true
    (List.for_all (( = ) "placement") (problems r))


(* ---- archive-tier (WORM) audit ---- *)

let populated_with_history () =
  (* overwrite a file enough times, then vacuum incrementally, so the
     audit has real archived versions to walk *)
  let fs, s = populated () in
  for i = 1 to 6 do
    Fs.write_file s "/docs/report" (bytes_of (Printf.sprintf "draft %d" i))
  done;
  Simclock.Clock.advance (Relstore.Db.clock (Fs.db fs)) 1.;
  let archived = ref 0 in
  for _ = 1 to 64 do
    match Fs.vacuum_step fs ~pages:4 ~mode:`Archive () with
    | Some (_, st) -> archived := !archived + st.Relstore.Vacuum.s_archived
    | None -> ()
  done;
  Alcotest.(check bool) "history actually migrated to the WORM tier" true (!archived > 0);
  (fs, s)

let arch_heap fs =
  let db = Fs.db fs in
  let nonempty n =
    let some = ref false in
    Relstore.Heap.scan_raw (Relstore.Db.find_relation db n) (fun _ -> some := true);
    !some
  in
  let name = List.find (fun n -> Relstore.Db.is_archive_name n && nonempty n) (Relstore.Db.relations db) in
  Relstore.Db.find_relation db name

let test_archive_audit_clean () =
  let fs, _ = populated_with_history () in
  let r = Fsck.audit fs in
  Alcotest.(check bool) ("clean: " ^ Fsck.report_to_string r) true (Fsck.is_clean r);
  Alcotest.(check bool) "archived versions were audited" true (r.Fsck.archived_checked > 0);
  (* the verdict string surfaces the archive walk *)
  let rs = Fsck.report_to_string r in
  let has_needle =
    let needle = "archived versions" in
    let nl = String.length needle and l = String.length rs in
    let rec go i = i + nl <= l && (String.sub rs i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("report mentions the archive tier: " ^ rs) true has_needle

let test_archive_audit_detects_live_version () =
  (* a record with no deleter on write-once storage means the vacuum (or
     a bug wearing its clothes) moved a version readers may still need *)
  let fs, _ = populated_with_history () in
  let arch = arch_heap fs in
  let donor =
    let r = ref None in
    Relstore.Heap.scan_raw arch (fun rec_ -> if !r = None then r := Some rec_);
    Option.get !r
  in
  ignore
    (Relstore.Heap.append_raw arch ~oid:donor.Relstore.Heap.oid
       ~xmin:donor.Relstore.Heap.xmin ~xmax:Relstore.Xid.invalid
       donor.Relstore.Heap.payload
      : Relstore.Tid.t);
  let r = Fsck.audit fs in
  Alcotest.(check bool) "audit flags the live archived version" false (Fsck.is_clean r);
  Alcotest.(check bool) "problem names the WORM tier" true
    (List.exists
       (fun p ->
         let d = p.Fsck.detail in
         String.length d >= 12 && String.sub d 0 12 = "live version")
       r.Fsck.problems)

let test_archive_audit_detects_uncommitted_deleter () =
  let fs, _ = populated_with_history () in
  let arch = arch_heap fs in
  let db = Fs.db fs in
  let donor =
    let r = ref None in
    Relstore.Heap.scan_raw arch (fun rec_ -> if !r = None then r := Some rec_);
    Option.get !r
  in
  (* stamp the copy with a deleter that is still in progress *)
  let open_txn = Db.begin_txn db in
  ignore
    (Relstore.Heap.append_raw arch ~oid:donor.Relstore.Heap.oid
       ~xmin:donor.Relstore.Heap.xmin
       ~xmax:(Relstore.Txn.xid open_txn)
       donor.Relstore.Heap.payload
      : Relstore.Tid.t);
  let r = Fsck.audit fs in
  Relstore.Txn.abort open_txn;
  Alcotest.(check bool) "audit flags the undecided deleter" false (Fsck.is_clean r)

let () =
  Alcotest.run "fsck"
    [
      ( "baselines",
        [
          Alcotest.test_case "clean on a healthy tree" `Quick test_clean_baseline;
          Alcotest.test_case "clean after a plain crash" `Quick
            test_clean_after_plain_crash;
        ] );
      ( "damage",
        [
          Alcotest.test_case "corrupted heap page detected" `Quick
            test_corrupted_heap_page_detected;
          Alcotest.test_case "corrupted index detected and rebuilt" `Quick
            test_corrupted_index_detected_and_rebuilt;
          Alcotest.test_case "catalog indexes recover" `Quick test_catalog_index_rebuild;
        ] );
      ( "archive tier",
        [
          Alcotest.test_case "clean WORM walk after vacuum" `Quick
            test_archive_audit_clean;
          Alcotest.test_case "live version on WORM flagged" `Quick
            test_archive_audit_detects_live_version;
          Alcotest.test_case "uncommitted deleter on WORM flagged" `Quick
            test_archive_audit_detects_uncommitted_deleter;
        ] );
      ( "cross-shard",
        [
          Alcotest.test_case "clean placement walk" `Quick test_shard_audit_clean;
          Alcotest.test_case "stray and missing copies flagged" `Quick
            test_shard_audit_stray_and_missing;
          Alcotest.test_case "unreachable shard degrades, not unclean" `Quick
            test_shard_audit_degraded_not_unclean;
          Alcotest.test_case "malformed map flagged" `Quick
            test_shard_audit_malformed_map;
        ] );
    ]
