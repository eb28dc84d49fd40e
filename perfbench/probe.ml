(* Timing of every public call the benchmark makes, and the traced run's
   spans.

   Each call's simulated duration, on the clock of the system it drives,
   is kept per call name for exact percentiles.  When tracing is on, each
   call also becomes a span with its simulated and host start and end,
   its parent span and a request id (the operation's index in its
   schedule).  Spans stay in memory and are written out once, at exit. *)

type span = {
  id : int;
  parent : int;  (** 0 = no parent *)
  rid : int;  (** operation index; -1 for set-up and admin calls *)
  name : string;
  s0 : float;
  s1 : float;
  h0 : float;
  h1 : float;
  ok : bool;
}

type t = {
  traced : bool;
  mutable clock : Simclock.Clock.t;
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable parent : int;
  mutable rid : int;
  sim : (string, Samples.t) Hashtbl.t;
}

(* The clock is set with [set_clock] once the machine exists. *)
let create ~traced =
  {
    traced;
    clock = Simclock.Clock.create ();
    spans = [];
    next_id = 1;
    parent = 0;
    rid = -1;
    sim = Hashtbl.create 32;
  }

let set_clock t clock = t.clock <- clock
let set_rid t rid = t.rid <- rid

let sim_samples t name =
  match Hashtbl.find_opt t.sim name with
  | Some s -> s
  | None ->
    let s = Samples.create () in
    Hashtbl.replace t.sim name s;
    s

let host_now t = if t.traced then Unix.gettimeofday () else 0.

let call t name f =
  let s0 = Simclock.Clock.now t.clock and h0 = host_now t in
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = t.parent in
  t.parent <- id;
  let finish ok =
    let h1 = host_now t and s1 = Simclock.Clock.now t.clock in
    t.parent <- parent;
    Samples.add (sim_samples t name) (s1 -. s0);
    if t.traced then
      t.spans <- { id; parent; rid = t.rid; name; s0; s1; h0; h1; ok } :: t.spans
  in
  match f () with
  | v ->
    finish true;
    v
  | exception e ->
    finish false;
    raise e

let span_count t = List.length t.spans

(* One JSON object per span.  [machine] tells apart the simulated
   machines of one run, whose span ids and clocks are separate. *)
let write_spans oc ~machine t =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"machine\":%d,\"id\":%d,\"parent\":%d,\"rid\":%d,\"name\":%S,\"sim_start_s\":%.6f,\"sim_end_s\":%.6f,\"host_start_s\":%.6f,\"host_end_s\":%.6f,\"ok\":%b}\n"
        machine s.id s.parent s.rid s.name s.s0 s.s1 s.h0 s.h1 s.ok)
    (List.rev t.spans)

let clear_samples t = Hashtbl.reset t.sim
