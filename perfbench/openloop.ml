(* Open-loop workloads on Inversion client/server: zipf_mixed and
   versioned_overwrite.

   Everything runs in one process on one OS thread.  Sessions are
   simulated: each owns a Remote.Client on its own Netsim link to one
   Remote.Server.  Operations arrive on a Poisson schedule drawn up front
   from the seed; an event queue on the simulated clock decides what runs
   next.  An operation runs when it is due and its session is free; if the
   server is still busy with earlier work it waits, and that wait is part
   of its latency, which runs from the scheduled arrival.

   A transaction is several events: Begin, each mutation and Commit are
   separate steps, so other sessions' requests that arrive meanwhile are
   served while it holds its locks.  An operation refused for a lock
   conflict or overload is retried with backoff (a refused transaction
   re-runs from its Begin); 10 s after its scheduled arrival the session
   gives up and the operation counts as failed.

   A model of acknowledged writes shadows every mutation.  Every current
   and As_of read, and the final tree, is checked against it. *)

module SM = Map.Make (String)
module Clock = Simclock.Clock
module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Errors = Invfs.Errors
module Client = Remote.Client
module Device = Pagestore.Device

let give_up_s = 10.

type kind = Read | Write | Create | Asof | Txn | Chunk_write | Chunk_read | Chunk_asof

type op = { idx : int; sess : int; arrival : float; kind : kind; u : float; pseed : int64 }

type spec = {
  sessions : int;
  tenants : int;
  seed_files : int;
  seed_bytes : int;
  max_file_bytes : int;
  write_bytes : int;
  theta : float;
  jukebox : bool;
  mix : float -> kind;  (** a uniform draw in [0,1) to an op kind *)
  snapshot_every_s : float;
  vacuum_every_s : float;  (** 0 = no admin vacuum *)
  vacuum_pages : int;
  rate : float;  (** arrivals per simulated second in the measured level *)
  ops : int;  (** operations per replica of the measured level *)
  replicas : int;  (** independent deployments the measured level runs on *)
  capacity_search : bool;
}

(* ---------- the schedule: a pure function of the seed ---------- *)

let schedule spec ~seed ~rate ~ops =
  let rng = Rng.create seed in
  let t = ref 0. in
  Array.init ops (fun idx ->
      t := !t +. (-.log (1. -. Rng.float rng 1.0) /. rate);
      let sess = Rng.int rng spec.sessions in
      let kind = spec.mix (Rng.float rng 1.0) in
      { idx; sess; arrival = !t; kind; u = Rng.float rng 1.0; pseed = Rng.next rng })

(* ---------- Zipf popularity over a growing population ---------- *)

type popn = { mutable paths : string array; mutable cums : float array; mutable n : int }

let popn_add theta p path =
  if p.n = Array.length p.paths then begin
    let grow a x = Array.append a (Array.make (max 64 p.n) x) in
    p.paths <- grow p.paths "";
    p.cums <- grow p.cums 0.
  end;
  let prev = if p.n = 0 then 0. else p.cums.(p.n - 1) in
  p.paths.(p.n) <- path;
  p.cums.(p.n) <- prev +. (1. /. (float_of_int (p.n + 1) ** theta));
  p.n <- p.n + 1

(* Old files are hot: rank = creation order. *)
let popn_pick p u =
  let target = u *. p.cums.(p.n - 1) in
  let lo = ref 0 and hi = ref (p.n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p.cums.(mid) > target then hi := mid else lo := mid + 1
  done;
  p.paths.(!lo)

(* ---------- the simulated deployment ---------- *)

type sess = {
  id : int;
  tenant : int;
  c : Client.t;
  q : op Queue.t;
  mutable cur : cur option;
}

and cur = {
  op : op;
  mutable step : int;
  mutable attempt : int;
  mutable ov : bytes SM.t;  (** this transaction's writes, not yet committed *)
  mutable ov_new : string list;  (** files it created, newest first *)
}

type env = {
  spec : spec;
  probe : Probe.t;
  clock : Clock.t;
  db : Relstore.Db.t;
  server : Remote.Server.t;
  net : Netsim.t;
  links : Netsim.Link.t array;
  sessions : sess array;
  admin : Client.t;
  pop : popn;
  mutable model : bytes SM.t;  (** committed contents, by path *)
  mutable snaps : (int64 * bytes SM.t * int) array;
      (** timestamp, committed contents, population size; oldest first *)
  mutable next_name : int;
  mutable written : int;  (** user bytes written by the measured operations *)
  mutable read : int;  (** user bytes read by them *)
  mutable errors : string list;
}

let error env fmt =
  Printf.ksprintf
    (fun m -> if List.length env.errors < 20 then env.errors <- m :: env.errors)
    fmt

let call env name f = Probe.call env.probe name f

let snapshot env =
  let ts = call env "snapshot" (fun () -> Client.c_snapshot env.admin) in
  env.snaps <- Array.append env.snaps [| (ts, env.model, env.pop.n) |]

let setup spec ~probe ~seed =
  let clock = Clock.create () in
  Probe.set_clock probe clock;
  let switch = Pagestore.Switch.create ~clock in
  let (_ : Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Device.Magnetic_disk ()
  in
  if spec.jukebox then begin
    (* the archive tier: Db places every "_arch" relation here *)
    let (_ : Device.t) =
      Pagestore.Switch.add_device switch ~name:"jukebox" ~kind:Device.Worm_jukebox ()
    in
    ()
  end;
  Relstore.Cpu_model.scale := 1.0;
  let db = Relstore.Db.create ~switch ~clock () in
  let fs = Fs.make db () in
  (* sessions never die here, so no lease reaping *)
  let server = Remote.Server.create ~fs ~lease_s:0. () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let rng = Rng.create seed in
  let links = Array.init (spec.sessions + 1) (fun _ -> Netsim.Link.create net) in
  let connect i = Client.connect ~server ~link:links.(i) ~rng:(Rng.split rng) () in
  let sessions =
    Array.init spec.sessions (fun id ->
        {
          id;
          tenant = id * spec.tenants / spec.sessions;
          c = connect id;
          q = Queue.create ();
          cur = None;
        })
  in
  let env =
    {
      spec;
      probe;
      clock;
      db;
      server;
      net;
      links;
      sessions;
      admin = connect spec.sessions;
      pop = { paths = [||]; cums = [||]; n = 0 };
      model = SM.empty;
      snaps = [||];
      next_name = 0;
      written = 0;
      read = 0;
      errors = [];
    }
  in
  for t = 0 to spec.tenants - 1 do
    call env "mkdir" (fun () -> Client.c_mkdir env.admin (Printf.sprintf "/t%d" t))
  done;
  for i = 0 to spec.seed_files - 1 do
    let s = sessions.(i mod spec.sessions) in
    let path = Printf.sprintf "/t%d/f%d" s.tenant env.next_name in
    env.next_name <- env.next_name + 1;
    let data = Rng.bytes rng spec.seed_bytes in
    call env "write_file" (fun () -> Client.write_file s.c path data);
    popn_add spec.theta env.pop path;
    env.model <- SM.add path data env.model
  done;
  (* One vacuum increment before measuring loads the jukebox platter,
     a one-time cost a running deployment has long paid. *)
  if spec.vacuum_every_s > 0. then
    ignore (call env "vacuum_step" (fun () -> Client.c_vacuum_step env.admin ()) : int);
  snapshot env;
  env

(* ---------- the operations ---------- *)

let splice cur ~off data =
  let len = Bytes.length cur and dlen = Bytes.length data in
  let out = Bytes.make (max len (off + dlen)) '\000' in
  Bytes.blit cur 0 out 0 len;
  Bytes.blit data 0 out off dlen;
  out

let with_fd env s fd f =
  match f () with
  | v ->
    call env "c_close" (fun () -> Client.c_close s.c fd);
    v
  | exception e ->
    (try Client.c_close s.c fd with Errors.Fs_error _ -> ());
    raise e

let read_range env s ?timestamp path ~off ~len =
  let fd = call env "c_open" (fun () -> Client.c_open s.c ?timestamp path Fs.Rdonly) in
  with_fd env s fd (fun () ->
      if off > 0 then
        ignore (Client.c_lseek s.c fd (Int64.of_int off) Fs.Seek_set : int64);
      let buf = Bytes.create len in
      let rec go filled =
        if filled >= len then filled
        else
          let chunk = Bytes.create (len - filled) in
          let n = call env "c_read" (fun () -> Client.c_read s.c fd chunk (len - filled)) in
          if n = 0 then filled
          else begin
            Bytes.blit chunk 0 buf filled n;
            go (filled + n)
          end
      in
      let n = go 0 in
      env.read <- env.read + n;
      Bytes.sub buf 0 n)

let read_whole env s ?timestamp path =
  let size =
    call env "c_stat" (fun () -> (Client.c_stat s.c ?timestamp path).Invfs.Fileatt.size)
  in
  read_range env s ?timestamp path ~off:0 ~len:(Int64.to_int size)

let write_at env s path ~off data =
  let fd = call env "c_open" (fun () -> Client.c_open s.c path Fs.Rdwr) in
  with_fd env s fd (fun () ->
      ignore (Client.c_lseek s.c fd (Int64.of_int off) Fs.Seek_set : int64);
      ignore
        (call env "c_write" (fun () -> Client.c_write s.c fd data (Bytes.length data)) : int);
      env.written <- env.written + Bytes.length data)

let check env what ~expect got =
  if not (Bytes.equal expect got) then
    error env "%s: read %d bytes, the model holds %d bytes%s" what (Bytes.length got)
      (Bytes.length expect)
      (if Bytes.length got = Bytes.length expect then " (contents differ)" else "")

let view env cur path =
  match SM.find_opt path cur.ov with
  | Some b -> b
  | None -> Option.value ~default:Bytes.empty (SM.find_opt path env.model)

(* A small write that grows the file up to its cap. *)
let small_write env s cur orng =
  let path = popn_pick env.pop (Rng.float orng 1.0) in
  let before = view env cur path in
  let len = Bytes.length before in
  let dlen = 1 + Rng.int orng env.spec.write_bytes in
  let off =
    if len + dlen > env.spec.max_file_bytes then Rng.int orng (max 1 (len - dlen + 1))
    else Rng.int orng (len + 1)
  in
  let data = Rng.bytes orng dlen in
  write_at env s path ~off data;
  (path, splice before ~off data)

let new_path env s =
  let p = Printf.sprintf "/t%d/n%d" s.tenant env.next_name in
  env.next_name <- env.next_name + 1;
  p

let create_file env s path =
  let fd = call env "c_creat" (fun () -> Client.c_creat s.c path) in
  call env "c_close" (fun () -> Client.c_close s.c fd)

(* An earlier snapshot and a file that existed then, both uniformly. *)
let pick_snapshot env orng =
  let ts, m, n = env.snaps.(Rng.int orng (Array.length env.snaps)) in
  (ts, m, env.pop.paths.(Rng.int orng n))

let steps = function Txn -> 5 | _ -> 1

(* One step of the current operation.  Raises [Fs_error] when refused. *)
let exec_step env s cur =
  let op = cur.op in
  let orng = Rng.create (Int64.add op.pseed (Int64.of_int cur.step)) in
  let spec = env.spec in
  let chunk = Invfs.Chunk.capacity in
  match op.kind with
  | Read ->
    call env "read" (fun () ->
        let path = popn_pick env.pop op.u in
        let got = read_whole env s path in
        check env ("read " ^ path) ~expect:(SM.find path env.model) got)
  | Write ->
    call env "write" (fun () ->
        let path, after = small_write env s cur orng in
        (* the write RPC auto-committed: that is the acknowledgement *)
        env.model <- SM.add path after env.model)
  | Create ->
    call env "create" (fun () ->
        let path = new_path env s in
        create_file env s path;
        popn_add spec.theta env.pop path;
        env.model <- SM.add path Bytes.empty env.model)
  | Asof ->
    call env "asof_read" (fun () ->
        let ts, m, path = pick_snapshot env orng in
        let got = read_whole env s ~timestamp:ts path in
        check env (Printf.sprintf "As_of %Ld read %s" ts path) ~expect:(SM.find path m) got)
  | Txn -> (
    match cur.step with
    | 0 -> call env "begin" (fun () -> Client.c_begin s.c)
    | 4 ->
      call env "commit" (fun () -> Client.c_commit s.c);
      SM.iter (fun p b -> env.model <- SM.add p b env.model) cur.ov;
      List.iter (fun p -> popn_add spec.theta env.pop p) (List.rev cur.ov_new)
    | _ ->
      if Rng.int orng 100 < 70 then
        call env "write" (fun () ->
            let path, after = small_write env s cur orng in
            cur.ov <- SM.add path after cur.ov)
      else
        call env "create" (fun () ->
            let path = new_path env s in
            create_file env s path;
            cur.ov <- SM.add path Bytes.empty cur.ov;
            cur.ov_new <- path :: cur.ov_new))
  | Chunk_write ->
    call env "write" (fun () ->
        let path = popn_pick env.pop op.u in
        let off = chunk * Rng.int orng (spec.seed_bytes / chunk) in
        let data = Rng.bytes orng chunk in
        write_at env s path ~off data;
        env.model <- SM.add path (splice (SM.find path env.model) ~off data) env.model)
  | Chunk_read ->
    call env "read" (fun () ->
        let path = popn_pick env.pop op.u in
        let off = chunk * Rng.int orng (spec.seed_bytes / chunk) in
        let got = read_range env s path ~off ~len:chunk in
        check env ("chunk read " ^ path) ~expect:(Bytes.sub (SM.find path env.model) off chunk) got)
  | Chunk_asof ->
    call env "asof_read" (fun () ->
        let ts, m, path = pick_snapshot env orng in
        let off = chunk * Rng.int orng (spec.seed_bytes / chunk) in
        let got = read_range env s ~timestamp:ts path ~off ~len:chunk in
        check env
          (Printf.sprintf "As_of %Ld chunk read %s" ts path)
          ~expect:(Bytes.sub (SM.find path m) off chunk) got)

let refused = function
  | Errors.EAGAIN | Errors.EDEADLK | Errors.ETIMEDOUT | Errors.EBUSY -> true
  | _ -> false

(* ---------- the event loop ---------- *)

type ev = Arrive of op | Run of sess | Admin_snapshot | Admin_vacuum

(* A binary min-heap on (due, seq): equal due times run in the order they
   were scheduled. *)
module Heap = struct
  type t = { mutable a : (float * int * ev) array; mutable n : int; mutable seq : int }

  let create () = { a = Array.make 256 (0., 0, Admin_snapshot); n = 0; seq = 0 }
  let lt (t1, s1, _) (t2, s2, _) = t1 < t2 || (t1 = t2 && s1 < s2)

  let push h due ev =
    if h.n = Array.length h.a then h.a <- Array.append h.a (Array.make h.n h.a.(0));
    let x = (due, h.seq, ev) in
    h.seq <- h.seq + 1;
    let i = ref h.n in
    h.n <- h.n + 1;
    while !i > 0 && lt x h.a.((!i - 1) / 2) do
      h.a.(!i) <- h.a.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.a.(!i) <- x

  let pop h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    let x = h.a.(h.n) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= h.n then fin := true
      else begin
        let c = if l + 1 < h.n && lt h.a.(l + 1) h.a.(l) then l + 1 else l in
        if lt h.a.(c) x then begin
          h.a.(!i) <- h.a.(c);
          i := c
        end
        else fin := true
      end
    done;
    if h.n > 0 then h.a.(!i) <- x;
    top
end

type level = {
  rate : float;
  ops : int;
  failed : int;
  lat : Samples.t;  (** seconds from scheduled arrival; failures = infinity *)
  offered : float;  (** ops / realised arrival span *)
  achieved : float;  (** completed ops / time to drain *)
  retries : int;
}

let run_level env ~seed ~rate ~ops =
  let sched = schedule env.spec ~seed ~rate ~ops in
  let t_start = Clock.now env.clock in
  let h = Heap.create () in
  Array.iter (fun op -> Heap.push h (t_start +. op.arrival) (Arrive op)) sched;
  let last_arrival = t_start +. sched.(ops - 1).arrival in
  if env.spec.snapshot_every_s > 0. then
    Heap.push h (t_start +. env.spec.snapshot_every_s) Admin_snapshot;
  if env.spec.vacuum_every_s > 0. then
    Heap.push h (t_start +. env.spec.vacuum_every_s) Admin_vacuum;
  let lat = Samples.create () in
  let failed = ref 0 and retries = ref 0 in
  let start s =
    match Queue.take_opt s.q with
    | None -> s.cur <- None
    | Some op ->
      s.cur <- Some { op; step = 0; attempt = 0; ov = SM.empty; ov_new = [] };
      Heap.push h (Clock.now env.clock) (Run s)
  in
  let finish s cur ~ok =
    let d = Clock.now env.clock -. (t_start +. cur.op.arrival) in
    Samples.add lat (if ok then d else infinity);
    if not ok then incr failed;
    start s
  in
  let run s =
    let cur = Option.get s.cur in
    Probe.set_rid env.probe cur.op.idx;
    (* the caller has given up before (re)starting the operation *)
    if cur.step = 0 && Clock.now env.clock > t_start +. cur.op.arrival +. give_up_s then
      finish s cur ~ok:false
    else
    match exec_step env s cur with
    | () ->
      cur.step <- cur.step + 1;
      if cur.step = steps cur.op.kind then finish s cur ~ok:true
      else Heap.push h (Clock.now env.clock) (Run s)
    | exception Errors.Fs_error (code, msg) ->
      if Client.in_txn s.c then
        (try call env "c_abort" (fun () -> Client.c_abort s.c) with Errors.Fs_error _ -> ());
      cur.step <- 0;
      cur.ov <- SM.empty;
      cur.ov_new <- [];
      cur.attempt <- cur.attempt + 1;
      if not (refused code) then begin
        error env "op %d: unexpected %s: %s" cur.op.idx (Errors.code_to_string code) msg;
        finish s cur ~ok:false
      end
      else begin
        (* exponential backoff from 20 ms, capped at 1 s, jittered 0.5-1.5x *)
        let jitter = Rng.float (Rng.create (Int64.add cur.op.pseed (Int64.of_int (1000 + cur.attempt)))) 1.0 in
        let backoff = Float.min 1.0 (0.02 *. (2. ** float_of_int (cur.attempt - 1))) *. (0.5 +. jitter) in
        let due = Clock.now env.clock +. backoff in
        if due > t_start +. cur.op.arrival +. give_up_s then finish s cur ~ok:false
        else begin
          incr retries;
          Heap.push h due (Run s)
        end
      end
  in
  let t_end = ref t_start in
  while h.Heap.n > 0 do
    let due, _, ev = Heap.pop h in
    Accounts.idle env.clock (due -. Clock.now env.clock);
    match ev with
    | Arrive op ->
      let s = env.sessions.(op.sess) in
      Queue.push op s.q;
      if s.cur = None then start s
    | Run s ->
      run s;
      t_end := Clock.now env.clock
    | Admin_snapshot ->
      Probe.set_rid env.probe (-1);
      snapshot env;
      if due +. env.spec.snapshot_every_s <= last_arrival then
        Heap.push h (due +. env.spec.snapshot_every_s) Admin_snapshot
    | Admin_vacuum ->
      Probe.set_rid env.probe (-1);
      let (_ : int) =
        call env "vacuum_step" (fun () ->
            Client.c_vacuum_step env.admin ~pages:env.spec.vacuum_pages ())
      in
      if due +. env.spec.vacuum_every_s <= last_arrival then
        Heap.push h (due +. env.spec.vacuum_every_s) Admin_vacuum
  done;
  let span = Float.max 1e-9 (last_arrival -. t_start) in
  let duration = Float.max span (!t_end -. t_start) in
  {
    rate;
    ops;
    failed = !failed;
    lat;
    offered = float_of_int ops /. span;
    achieved = float_of_int (ops - !failed) /. duration;
    retries = !retries;
  }

(* The whole tree, read through a fresh session, must equal the model. *)
let verify_tree env =
  let link = Netsim.Link.create env.net in
  let c = Client.connect ~server:env.server ~link ~rng:(Rng.create 11L) () in
  let seen = Hashtbl.create 256 in
  let join d n = if d = "/" then "/" ^ n else d ^ "/" ^ n in
  let rec walk dir =
    List.iter
      (fun name ->
        let p = join dir name in
        if (Client.c_stat c p).Invfs.Fileatt.ftype = "directory" then walk p
        else Hashtbl.replace seen p (Client.read_whole_file c p))
      (Client.c_readdir c dir)
  in
  walk "/";
  SM.iter
    (fun p b ->
      match Hashtbl.find_opt seen p with
      | None -> error env "final tree: %s is missing" p
      | Some got ->
        Hashtbl.remove seen p;
        if not (Bytes.equal got b) then error env "final tree: %s differs from the model" p)
    env.model;
  Hashtbl.iter (fun p _ -> error env "final tree: unexpected file %s" p) seen

let live_bytes env = SM.fold (fun _ b acc -> acc + Bytes.length b) env.model 0

let disk0_bytes env =
  let d = Pagestore.Switch.find (Relstore.Db.switch env.db) "disk0" in
  Device.used_blocks d * Pagestore.Page.size

(* ---------- the two workloads ---------- *)

let zipf_mixed =
  {
    sessions = 64;
    tenants = 8;
    seed_files = 64;
    seed_bytes = 2048;
    max_file_bytes = 16 * 1024;
    write_bytes = 1024;
    theta = 1.1;
    jukebox = false;
    mix =
      (fun u ->
        (* 1 op in 12 opens a 3-mutation transaction; the rest split
           60/25/10/5 read/write/create/As_of *)
        if u < 1. /. 12. then Txn
        else
          let r = (u -. (1. /. 12.)) *. 12. /. 11. in
          if r < 0.60 then Read else if r < 0.85 then Write else if r < 0.95 then Create else Asof);
    snapshot_every_s = 10.;
    vacuum_every_s = 0.;
    vacuum_pages = 0;
    rate = 4.;
    ops = 1000;
    replicas = 10;
    capacity_search = true;
  }

let versioned_overwrite =
  {
    sessions = 4;
    tenants = 1;
    seed_files = 16;
    seed_bytes = 8 * Invfs.Chunk.capacity;
    max_file_bytes = 8 * Invfs.Chunk.capacity;
    write_bytes = Invfs.Chunk.capacity;
    theta = 1.1;
    jukebox = true;
    mix = (fun u -> if u < 0.70 then Chunk_write else if u < 0.85 then Chunk_read else Chunk_asof);
    snapshot_every_s = 10.;
    vacuum_every_s = 2.;
    vacuum_pages = 16;
    rate = 4.;
    ops = 400;
    replicas = 32;
    capacity_search = false;
  }
