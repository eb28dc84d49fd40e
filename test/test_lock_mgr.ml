(* The lock manager, tested directly: multi-party deadlock cycles,
   Shared -> Exclusive upgrade contention, release_all clearing wait-for
   edges, and the bounded retry-with-backoff helper. *)

module L = Relstore.Lock_mgr

let xid = Alcotest.int

let test_three_party_deadlock_cycle () =
  let lm = L.create () in
  (* 1 -> a, 2 -> b, 3 -> c, then close the cycle 1->b->... *)
  L.acquire lm 1 ~resource:"a" L.Exclusive;
  L.acquire lm 2 ~resource:"b" L.Exclusive;
  L.acquire lm 3 ~resource:"c" L.Exclusive;
  (* 1 waits for b (held by 2), 2 waits for c (held by 3): edges only *)
  (match L.acquire lm 1 ~resource:"b" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block { holders; _ } ->
    Alcotest.(check (list xid)) "1 blocked on 2" [ 2 ] holders);
  (match L.acquire lm 2 ~resource:"c" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block { holders; _ } ->
    Alcotest.(check (list xid)) "2 blocked on 3" [ 3 ] holders);
  Alcotest.(check (list xid)) "wait-for edge 1->2" [ 2 ] (L.waiting lm 1);
  Alcotest.(check (list xid)) "wait-for edge 2->3" [ 3 ] (L.waiting lm 2);
  (* 3 -> a closes the 3-cycle 1->2->3->1: deadlock, victim is 3 *)
  (match L.acquire lm 3 ~resource:"a" L.Exclusive with
  | () -> Alcotest.fail "expected Deadlock"
  | exception L.Deadlock victim -> Alcotest.(check xid) "victim" 3 victim);
  (* the victim aborts; the cycle is broken and 3's resource frees up *)
  L.release_all lm 3;
  L.acquire lm 2 ~resource:"c" L.Exclusive;
  L.release_all lm 2;
  L.acquire lm 1 ~resource:"b" L.Exclusive

let test_four_party_deadlock_cycle () =
  let lm = L.create () in
  List.iter
    (fun (x, r) -> L.acquire lm x ~resource:r L.Exclusive)
    [ (1, "a"); (2, "b"); (3, "c"); (4, "d") ];
  let block x r =
    match L.acquire lm x ~resource:r L.Exclusive with
    | () -> Alcotest.fail "expected Would_block"
    | exception L.Would_block _ -> ()
  in
  block 1 "b";
  block 2 "c";
  block 3 "d";
  (match L.acquire lm 4 ~resource:"a" L.Exclusive with
  | () -> Alcotest.fail "expected Deadlock"
  | exception L.Deadlock victim -> Alcotest.(check xid) "victim" 4 victim)

let test_shared_to_exclusive_upgrade () =
  let lm = L.create () in
  (* sole shared holder upgrades in place *)
  L.acquire lm 1 ~resource:"r" L.Shared;
  L.acquire lm 1 ~resource:"r" L.Exclusive;
  Alcotest.(check (list (pair xid (of_pp (fun fmt m -> Format.pp_print_string fmt (L.mode_to_string m))))))
    "upgraded" [ (1, L.Exclusive) ]
    (L.holders lm ~resource:"r");
  L.release_all lm 1;
  (* contended upgrade blocks on the other shared holder *)
  L.acquire lm 1 ~resource:"r" L.Shared;
  L.acquire lm 2 ~resource:"r" L.Shared;
  (match L.acquire lm 1 ~resource:"r" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block { holders; _ } ->
    Alcotest.(check (list xid)) "blocked on the other reader" [ 2 ] holders);
  (* symmetric upgrade attempt from 2 closes a 2-cycle: upgrade deadlock *)
  (match L.acquire lm 2 ~resource:"r" L.Exclusive with
  | () -> Alcotest.fail "expected Deadlock"
  | exception L.Deadlock victim -> Alcotest.(check xid) "victim" 2 victim);
  L.release_all lm 2;
  (* with 2 gone, 1 is sole holder again and the upgrade goes through *)
  L.acquire lm 1 ~resource:"r" L.Exclusive

let modes = [ L.Shared; L.Intent_exclusive; L.Exclusive ]
let mode = Alcotest.of_pp (fun fmt m -> Format.pp_print_string fmt (L.mode_to_string m))

(* The reference tables, written out case by case. *)
let ref_compatible a b =
  match (a, b) with
  | L.Shared, L.Shared -> true
  | L.Intent_exclusive, L.Intent_exclusive -> true
  | L.Shared, L.Intent_exclusive | L.Intent_exclusive, L.Shared -> false
  | L.Exclusive, _ | _, L.Exclusive -> false

let ref_upgrade held want =
  match (held, want) with
  | L.Shared, L.Shared -> L.Shared
  | L.Intent_exclusive, L.Intent_exclusive -> L.Intent_exclusive
  | L.Shared, L.Intent_exclusive | L.Intent_exclusive, L.Shared -> L.Exclusive
  | L.Exclusive, _ | _, L.Exclusive -> L.Exclusive

let test_shared_intent_upgrade () =
  let lm = L.create () in
  (* S + IX, in either order, is X *)
  L.acquire lm 1 ~resource:"r" L.Shared;
  L.acquire lm 1 ~resource:"r" L.Intent_exclusive;
  Alcotest.(check (list (pair xid mode))) "S then IX" [ (1, L.Exclusive) ]
    (L.holders lm ~resource:"r");
  L.acquire lm 2 ~resource:"q" L.Intent_exclusive;
  L.acquire lm 2 ~resource:"q" L.Shared;
  Alcotest.(check (list (pair xid mode))) "IX then S" [ (2, L.Exclusive) ]
    (L.holders lm ~resource:"q");
  L.release_all lm 1;
  L.release_all lm 2;
  (* IX holders share; one of them asking for S needs the others gone *)
  L.acquire lm 1 ~resource:"r" L.Intent_exclusive;
  L.acquire lm 2 ~resource:"r" L.Intent_exclusive;
  (match L.acquire lm 1 ~resource:"r" L.Shared with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block { holders; _ } ->
    Alcotest.(check (list xid)) "upgrade waits for the other IX" [ 2 ] holders);
  (* a pending upgrade is a writer wait: a fresh S queues behind it *)
  (match L.acquire lm 3 ~resource:"r" L.Shared with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block { holders; _ } ->
    Alcotest.(check (list xid)) "reader blocked by holders and waiter" [ 1; 2 ] holders);
  L.release_all lm 2;
  L.acquire lm 1 ~resource:"r" L.Shared;
  Alcotest.(check (list (pair xid mode))) "upgraded" [ (1, L.Exclusive) ]
    (L.holders lm ~resource:"r");
  Alcotest.(check bool) "IX counts as a write" true
    (L.release_all lm 1;
     L.acquire lm 4 ~resource:"r" L.Intent_exclusive;
     L.holds_exclusive lm 4);
  Alcotest.(check bool) "S does not" false
    (L.acquire lm 5 ~resource:"s" L.Shared;
     L.holds_exclusive lm 5)

let test_row_deadlock () =
  let lm = L.create () in
  (* two row writers share the relation's IX and cross on two rows *)
  List.iter (fun x -> L.acquire lm x ~resource:"rel:fileatt" L.Intent_exclusive) [ 1; 2 ];
  L.acquire lm 1 ~resource:"rel:fileatt#10" L.Exclusive;
  L.acquire lm 2 ~resource:"rel:fileatt#11" L.Exclusive;
  (match L.acquire lm 1 ~resource:"rel:fileatt#11" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block { holders; _ } ->
    Alcotest.(check (list xid)) "1 waits on row 11's writer" [ 2 ] holders);
  (match L.acquire lm 2 ~resource:"rel:fileatt#10" L.Exclusive with
  | () -> Alcotest.fail "expected Deadlock"
  | exception L.Deadlock victim -> Alcotest.(check xid) "victim" 2 victim);
  L.release_all lm 2;
  L.acquire lm 1 ~resource:"rel:fileatt#11" L.Exclusive;
  Alcotest.(check (list string)) "1's locks" [ "rel:fileatt"; "rel:fileatt#10"; "rel:fileatt#11" ]
    (List.map fst (L.held_by lm 1));
  L.release_all lm 1;
  Alcotest.(check (list (pair xid mode))) "rows freed" [] (L.holders lm ~resource:"rel:fileatt#10")

(* Random acquire/release sequences over three xids and two resources,
   checked against the reference tables: a request is granted exactly
   when no other holder conflicts with the upgraded mode and (for a
   fresh S request) no other transaction has a pending IX or X wait;
   the granted mode is the reference upgrade; holders always agree with
   the model and are pairwise compatible. *)
type op = Acq of int * int * L.mode | Rel of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun x r m -> Acq (x, r, m))
            (int_range 1 3) (int_range 0 1) (oneofl modes) );
        (1, map (fun x -> Rel x) (int_range 1 3));
      ])

let show_op = function
  | Acq (x, r, m) -> Printf.sprintf "acq(%d,r%d,%s)" x r (L.mode_to_string m)
  | Rel x -> Printf.sprintf "rel(%d)" x

let prop_matches_reference ops =
  let lm = L.create () in
  let holders = Hashtbl.create 8 (* (resource, xid) -> mode *) in
  let waiters = Hashtbl.create 8 (* (resource, xid) -> mode *) in
  let res r = "r" ^ string_of_int r in
  let check_resource r =
    let model =
      Hashtbl.fold (fun (r', x) m acc -> if r' = r then (x, m) :: acc else acc) holders []
      |> List.sort compare
    in
    if L.holders lm ~resource:(res r) <> model then
      QCheck.Test.fail_reportf "holders of r%d differ from the model" r;
    List.iter
      (fun (a, ma) ->
        List.iter
          (fun (b, mb) ->
            if a <> b && not (ref_compatible ma mb) then
              QCheck.Test.fail_reportf "xid %d (%s) and %d (%s) both hold r%d" a
                (L.mode_to_string ma) b (L.mode_to_string mb) r)
          model)
      model
  in
  List.iter
    (fun op ->
      (match op with
      | Rel x ->
        L.release_all lm x;
        List.iter
          (fun tbl ->
            Hashtbl.filter_map_inplace (fun (_, x') m -> if x' = x then None else Some m) tbl)
          [ holders; waiters ]
      | Acq (x, r, want) ->
        let held = Hashtbl.find_opt holders (r, x) in
        let target = match held with Some m -> ref_upgrade m want | None -> want in
        let conflict =
          Hashtbl.fold
            (fun (r', x') m acc -> acc || (r' = r && x' <> x && not (ref_compatible target m)))
            holders false
        in
        let barred =
          target = L.Shared && held = None
          && Hashtbl.fold
               (fun (r', x') m acc -> acc || (r' = r && x' <> x && m <> L.Shared))
               waiters false
        in
        let expect_grant = held = Some target || not (conflict || barred) in
        (match L.acquire lm x ~resource:(res r) want with
        | () ->
          if not expect_grant then QCheck.Test.fail_reportf "%s granted" (show_op op);
          (* re-asking for a lock already held leaves an older pending
             wait in place *)
          if held <> Some target then begin
            Hashtbl.replace holders (r, x) target;
            Hashtbl.remove waiters (r, x)
          end
        | exception L.Would_block _ ->
          if expect_grant then QCheck.Test.fail_reportf "%s blocked" (show_op op);
          Hashtbl.replace waiters (r, x) target
        | exception L.Deadlock _ ->
          if expect_grant then QCheck.Test.fail_reportf "%s deadlocked" (show_op op);
          Hashtbl.remove waiters (r, x)));
      check_resource 0;
      check_resource 1)
    ops;
  true

let qcheck_matches_reference =
  QCheck.Test.make ~name:"acquire/release match the reference tables" ~count:500
    (QCheck.make ~print:(QCheck.Print.list show_op) QCheck.Gen.(list_size (int_range 1 40) op_gen))
    prop_matches_reference

let test_release_all_clears_wait_edges () =
  let lm = L.create () in
  L.acquire lm 1 ~resource:"r" L.Exclusive;
  (match L.acquire lm 2 ~resource:"r" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block _ -> ());
  Alcotest.(check (list xid)) "edge recorded" [ 1 ] (L.waiting lm 2);
  (* 2 gives up: its wait-for edges must go with its (empty) lock set,
     otherwise a stale edge would fabricate deadlocks later *)
  L.release_all lm 2;
  Alcotest.(check (list xid)) "edge cleared" [] (L.waiting lm 2);
  (* 2's cleared edge must not poison later detection: build a real
     2-cycle with a fresh xid and check it is still caught, and that
     releasing the partner dissolves it *)
  L.acquire lm 3 ~resource:"s" L.Exclusive;
  (match L.acquire lm 1 ~resource:"s" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block _ -> ());
  (* 1 waits for 3; 3 -> r (held by 1) closes the 2-cycle *)
  (match L.acquire lm 3 ~resource:"r" L.Exclusive with
  | () -> Alcotest.fail "expected Deadlock"
  | exception L.Deadlock victim -> Alcotest.(check xid) "victim" 3 victim);
  (* releasing 1 clears both its lock on r and the 1->3 edge *)
  L.release_all lm 1;
  Alcotest.(check (list xid)) "1's edge gone" [] (L.waiting lm 1);
  L.acquire lm 3 ~resource:"r" L.Exclusive

let test_writer_not_starved_by_readers () =
  let lm = L.create () in
  (* reader 1 holds Shared; a writer requests Exclusive and blocks *)
  L.acquire lm 1 ~resource:"r" L.Shared;
  (match L.acquire lm 100 ~resource:"r" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block { holders; _ } ->
    Alcotest.(check (list xid)) "writer blocked on the reader" [ 1 ] holders);
  (* a stream of fresh readers is mode-compatible with the Shared holder,
     but every one must queue behind the pending writer — this is the
     no-barging rule that keeps the writer from starving *)
  for r = 2 to 9 do
    match L.acquire lm r ~resource:"r" L.Shared with
    | () -> Alcotest.fail "reader barged past a pending writer"
    | exception L.Would_block { holders; _ } ->
      Alcotest.(check (list xid)) "reader queued behind the writer" [ 100 ]
        holders
  done;
  (* the existing holder is exempt: re-acquiring its own lock is a no-op *)
  L.acquire lm 1 ~resource:"r" L.Shared;
  (* the reader commits; the writer's retry now wins *)
  L.release_all lm 1;
  L.acquire lm 100 ~resource:"r" L.Exclusive;
  Alcotest.(check (list xid)) "writer holds exclusively" [ 100 ]
    (List.map fst (L.holders lm ~resource:"r"));
  (* the writer commits; the queued readers all proceed *)
  L.release_all lm 100;
  for r = 2 to 9 do
    L.acquire lm r ~resource:"r" L.Shared
  done;
  Alcotest.(check int) "all readers hold" 8
    (List.length (L.holders lm ~resource:"r"))

let test_dead_writer_cannot_bar_readers () =
  let lm = L.create () in
  L.acquire lm 1 ~resource:"r" L.Shared;
  (match L.acquire lm 100 ~resource:"r" L.Exclusive with
  | () -> Alcotest.fail "expected Would_block"
  | exception L.Would_block _ -> ());
  (* the blocked writer aborts: its pending wait must die with it, or
     readers would be barred by a ghost forever *)
  L.release_all lm 100;
  L.acquire lm 2 ~resource:"r" L.Shared

let test_wait_queue_probe () =
  let lm = L.create () in
  let read_probe () =
    match Obs.Metrics.read "lock.wait_queue" with
    | Some v -> v
    | None -> Alcotest.fail "lock.wait_queue probe not registered"
  in
  Alcotest.(check int) "empty manager" 0 (L.wait_queue_length lm);
  Alcotest.(check int) "probe empty" 0 (read_probe ());
  L.acquire lm 1 ~resource:"a" L.Exclusive;
  L.acquire lm 2 ~resource:"b" L.Exclusive;
  let block x r =
    match L.acquire lm x ~resource:r L.Exclusive with
    | () -> Alcotest.fail "expected Would_block"
    | exception L.Would_block _ -> ()
  in
  block 3 "a";
  block 4 "b";
  Alcotest.(check int) "two blocked" 2 (L.wait_queue_length lm);
  Alcotest.(check int) "probe reads through" 2 (read_probe ());
  L.release_all lm 3;
  Alcotest.(check int) "aborted waiter leaves the queue" 1 (read_probe ());
  L.reset lm;
  Alcotest.(check int) "reset clears the queue" 0 (read_probe ())

let () =
  Alcotest.run "lock_mgr"
    [
      ( "deadlock",
        [
          Alcotest.test_case "three-party cycle" `Quick test_three_party_deadlock_cycle;
          Alcotest.test_case "four-party cycle" `Quick test_four_party_deadlock_cycle;
        ] );
      ( "upgrade",
        [
          Alcotest.test_case "shared->exclusive" `Quick test_shared_to_exclusive_upgrade;
          Alcotest.test_case "shared<->intent-exclusive" `Quick test_shared_intent_upgrade;
        ] );
      ( "modes",
        [
          QCheck_alcotest.to_alcotest qcheck_matches_reference;
          Alcotest.test_case "row deadlock" `Quick test_row_deadlock;
        ] );
      ( "release",
        [
          Alcotest.test_case "release_all clears wait edges" `Quick
            test_release_all_clears_wait_edges;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "writer not starved by readers" `Quick
            test_writer_not_starved_by_readers;
          Alcotest.test_case "dead writer cannot bar readers" `Quick
            test_dead_writer_cannot_bar_readers;
          Alcotest.test_case "wait-queue probe" `Quick test_wait_queue_probe;
        ] );
    ]
