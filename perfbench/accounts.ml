(* Per-layer attribution of simulated time.

   Every model in the stack charges its cost to a named account on the
   simulated clock.  This module groups the accounts by layer and takes
   deltas over a measured phase.  The groups must add up to the elapsed
   simulated time, and nothing may land in [simclock.unattributed_s]:
   an account this table does not know is a cost no layer owns. *)

module Clock = Simclock.Clock

let groups =
  [
    "relstore.cpu_s";
    "relstore.commit_s";
    "relstore.lock_backoff_s";
    "remote.wire_s";
    "remote.pipeline_s";
    "remote.retry_s";
    "pagestore.disk_s";
    "pagestore.oscache_s";
    "pagestore.nvram_s";
    "pagestore.jukebox_s";
    "bench.idle_s";
    "simclock.unattributed_s";
  ]

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let group_of = function
  | "dbms.cpu" -> "relstore.cpu_s"
  | "xlog.commit" -> "relstore.commit_s"
  | "lock.backoff" -> "relstore.lock_backoff_s"
  | "net" -> "remote.wire_s"
  | "net.pipeline" -> "remote.pipeline_s"
  | "net.backoff" | "net.retry_after" | "net.timeout" -> "remote.retry_s"
  | "disk.seek" | "disk.rotate" | "disk.xfer" | "disk.overhead" | "disk.drain" ->
    "pagestore.disk_s"
  | "oscache.read" | "oscache.write" -> "pagestore.oscache_s"
  | "nvram" | "presto.nvram" -> "pagestore.nvram_s"
  | a when starts_with "jukebox" a -> "pagestore.jukebox_s"
  | "bench.idle" -> "bench.idle_s"
  | _ -> "simclock.unattributed_s"

(* The benchmark's own open-loop slack: the server had nothing to do
   until the next scheduled arrival. *)
let idle clock dt = if dt > 0. then Clock.advance clock ~account:"bench.idle" dt

type mark = { clock : Clock.t; t0 : float; acc0 : (string * float) list }

let mark clock = { clock; t0 = Clock.now clock; acc0 = Clock.accounts clock }

type delta = { elapsed : float; by_group : (string * float) list; unknown : string list }

let zero = { elapsed = 0.; by_group = List.map (fun g -> (g, 0.)) groups; unknown = [] }

(* Group deltas since [m]. *)
let since m =
  let tbl = Hashtbl.create 16 in
  List.iter (fun g -> Hashtbl.replace tbl g 0.) groups;
  let unknown = ref [] in
  List.iter
    (fun (a, v) ->
      let d = v -. Option.value ~default:0. (List.assoc_opt a m.acc0) in
      if d <> 0. then begin
        let g = group_of a in
        if g = "simclock.unattributed_s" then unknown := a :: !unknown;
        Hashtbl.replace tbl g (Hashtbl.find tbl g +. d)
      end)
    (Clock.accounts m.clock);
  {
    elapsed = Clock.now m.clock -. m.t0;
    by_group = List.map (fun g -> (g, Hashtbl.find tbl g)) groups;
    unknown = !unknown;
  }

let sum deltas =
  {
    elapsed = List.fold_left (fun acc d -> acc +. d.elapsed) 0. deltas;
    by_group =
      List.map
        (fun g ->
          (g, List.fold_left (fun acc d -> acc +. List.assoc g d.by_group) 0. deltas))
        groups;
    unknown = List.sort_uniq compare (List.concat_map (fun d -> d.unknown) deltas);
  }

(* The attribution closes: groups sum to elapsed within 1 µs per
   machine, and no account is unattributed. *)
let check ~what d =
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0. d.by_group in
  let errs = ref [] in
  if Float.abs (total -. d.elapsed) > 1e-6 then
    errs :=
      Printf.sprintf "%s: clock accounts sum to %.9f s but %.9f s elapsed" what total
        d.elapsed
      :: !errs;
  if d.unknown <> [] then
    errs :=
      Printf.sprintf "%s: unattributed clock accounts: %s" what
        (String.concat ", " d.unknown)
      :: !errs;
  !errs
