(* Long-mode sharded-fleet sweep, run via `dune build @shard`.

   Covers 40 seeded schedules by default — each one a fleet of clients
   against a coordinator plus three shards, with message faults on every
   link, mid-request crashes of any member, boundary crashes rotating
   over the fleet, and heartbeat partitions long enough to force real
   failovers.  SHARD_SEEDS=5,6,7 appends extra comma-separated seeds,
   SHARD_OPS=N lengthens each run, and `--quick` (wired into the default
   `dune runtest`) trims to a fast subset.  `--trace SEED` replays one
   seed with the per-op repro log on stderr.  The run ends with the
   fence and handoff totals and fails if either is 0. *)

let base_seeds = List.init 40 (fun i -> Int64.of_int (i + 1))
let quick_seeds = [ 1L; 2L; 3L; 4L; 5L ]

let env_seeds () =
  match Sys.getenv_opt "SHARD_SEEDS" with
  | None | Some "" -> []
  | Some s ->
    String.split_on_char ',' s
    |> List.filter_map (fun tok ->
           match Int64.of_string_opt (String.trim tok) with
           | Some n -> Some n
           | None ->
             Printf.eprintf "shard_sweep: ignoring bad seed %S\n" tok;
             None)

let ops () =
  match Sys.getenv_opt "SHARD_OPS" with
  | None | Some "" -> Benchlib.Shardtest.default_config.Benchlib.Shardtest.ops
  | Some s -> int_of_string s

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let trace_seed =
    let rec find i =
      if i >= Array.length Sys.argv then None
      else if Sys.argv.(i) = "--trace" && i + 1 < Array.length Sys.argv then
        Int64.of_string_opt Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 1
  in
  let config =
    {
      Benchlib.Shardtest.default_config with
      ops = ops ();
      trace = trace_seed <> None;
    }
  in
  let seeds =
    match trace_seed with
    | Some s -> [ s ]
    | None -> (if quick then quick_seeds else base_seeds) @ env_seeds ()
  in
  let failed = ref 0 in
  let fences = ref 0 and handoffs = ref 0 in
  List.iter
    (fun seed ->
      let o = Benchlib.Shardtest.run ~config ~seed () in
      fences := !fences + o.Benchlib.Shardtest.fence_events;
      handoffs := !handoffs + o.Benchlib.Shardtest.handoffs;
      Printf.printf "%s\n%!" (Benchlib.Shardtest.outcome_to_string o);
      List.iter
        (fun m ->
          incr failed;
          Printf.printf "  MISMATCH: %s\n%!" m)
        o.Benchlib.Shardtest.mismatches)
    seeds;
  Printf.printf "fences: %d\n%!" !fences;
  Printf.printf "handoffs: %d\n%!" !handoffs;
  (* The schedules must reach failover (a fence, then handoffs), or the
     sweep says nothing about it. *)
  if !fences = 0 then begin
    Printf.eprintf "shard_sweep: no failover was fenced\n";
    exit 1
  end;
  if !handoffs = 0 then begin
    Printf.eprintf "shard_sweep: no handoff completed\n";
    exit 1
  end;
  if !failed > 0 then begin
    Printf.eprintf
      "shard_sweep: %d mismatches (repro: shard_sweep.exe --trace SEED)\n" !failed;
    exit 1
  end
