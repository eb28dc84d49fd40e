(* paper_table3: the paper's benchmark (Table 3, Figures 3-6) on its three
   configurations, closed loop, one client.

   The systems are assembled here from public entry points only, because
   the per-layer metrics need the machines' handles, which
   Benchlib.Systems keeps private.  The parameters are those of the
   repository's own Table-3 run (Benchlib.Systems and Benchlib.Workload):
   a 300-page DBMS pool, the headline commit pipeline (group commit 8, 1 s
   flush bound, deferred index, early release), and ULTRIX NFS behind a
   PRESTOserve board.  The operation sequence and its random draws are
   the same too, so with Workload's default seed the cells equal the
   repository's `bench tab3` exactly. *)

module Clock = Simclock.Clock
module Rng = Simclock.Rng
module Fs = Invfs.Fs
module Client = Remote.Client

let mb = 1024 * 1024

(* "Create a 25 MByte file" *)
let file_mb = 25
let path = "/bench.dat"

type kind = Cs | Nfs | Sp

let kind_key = function Cs -> "inv_cs" | Nfs -> "nfs" | Sp -> "inv_sp"

type file = { read : off:int64 -> len:int -> bytes; write : off:int64 -> bytes -> unit }

type sys = {
  kind : kind;
  clock : Clock.t;
  io_unit : int;
  create : string -> file;
  begin_batch : unit -> unit;
  end_batch : unit -> unit;
  flush : unit -> unit;
  read_back : string -> bytes;  (** whole file through a fresh session *)
  db : Relstore.Db.t option;
  fs : Fs.t option;
  net : Netsim.t option;
  links : Netsim.Link.t list;
  server : Remote.Server.t option;
}

let group_commit = 8
let flush_wait_us = 1_000_000

let inversion_db () =
  let clock = Clock.create () in
  let switch = Pagestore.Switch.create ~clock in
  let (_ : Pagestore.Device.t) =
    Pagestore.Switch.add_device switch ~name:"disk0" ~kind:Pagestore.Device.Magnetic_disk ()
  in
  let db =
    Relstore.Db.create ~switch ~clock ~cache_capacity:300 ~os_cache_blocks:16384
      ~group_commit ~flush_wait_us ~deferred_index:true ~early_release:true ()
  in
  (clock, db, Fs.make db ())

(* "All caches were flushed before each test": settle the commit pipeline
   so no cost hangs into the next measurement, then drop the pool. *)
let flush_db db () =
  Relstore.Db.force_group db;
  let cache = Relstore.Db.cache db in
  Pagestore.Bufcache.flush cache;
  Pagestore.Bufcache.crash cache

let read_fd_loop read_call ~len =
  let buf = Bytes.create len in
  let n = read_call buf len in
  Bytes.sub buf 0 n

let client_server probe =
  let clock, db, fs = inversion_db () in
  let server = Remote.Server.create ~fs ~lease_s:0. () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let link = Netsim.Link.create net in
  let client = Client.connect ~server ~link ~rng:(Rng.create 1993L) () in
  let call name f = Probe.call probe name f in
  let mk fd =
    {
      read =
        (fun ~off ~len ->
          call "read" (fun () ->
              ignore (Client.c_lseek client fd off Fs.Seek_set : int64);
              read_fd_loop (Client.c_read client fd) ~len));
      write =
        (fun ~off data ->
          call "write" (fun () ->
              ignore (Client.c_lseek client fd off Fs.Seek_set : int64);
              ignore (Client.c_write client fd data (Bytes.length data) : int)));
    }
  in
  let read_back p =
    let link = Netsim.Link.create net in
    let c = Client.connect ~server ~link ~rng:(Rng.create 7L) () in
    Client.read_whole_file c p
  in
  {
    kind = Cs;
    clock;
    io_unit = Invfs.Chunk.capacity;
    (* The create includes one stat round trip, as the repository's own
       Table-3 run makes to find the new file's server-side handle. *)
    create =
      (fun p ->
        call "create" (fun () ->
            let fd = Client.c_creat client p in
            ignore (Client.c_stat client p : Invfs.Fileatt.att);
            mk fd));
    begin_batch = (fun () -> call "begin" (fun () -> Client.c_begin client));
    end_batch = (fun () -> call "commit" (fun () -> Client.c_commit client));
    flush = flush_db db;
    read_back;
    db = Some db;
    fs = Some fs;
    net = Some net;
    links = [ link ];
    server = Some server;
  }

let single_process probe =
  let clock, db, fs = inversion_db () in
  let s = Fs.new_session fs in
  let call name f = Probe.call probe name f in
  let mk fd =
    {
      read =
        (fun ~off ~len ->
          call "read" (fun () ->
              ignore (Fs.p_lseek s fd off Fs.Seek_set : int64);
              read_fd_loop (Fs.p_read s fd) ~len));
      write =
        (fun ~off data ->
          call "write" (fun () ->
              ignore (Fs.p_lseek s fd off Fs.Seek_set : int64);
              ignore (Fs.p_write s fd data (Bytes.length data) : int)));
    }
  in
  {
    kind = Sp;
    clock;
    io_unit = Invfs.Chunk.capacity;
    create = (fun p -> call "create" (fun () -> mk (Fs.p_creat s p)));
    begin_batch = (fun () -> call "begin" (fun () -> Fs.p_begin s));
    (* a single-process caller waits on its own commit *)
    end_batch =
      (fun () ->
        call "commit" (fun () ->
            Fs.p_commit s;
            Fs.sync fs));
    flush = flush_db db;
    read_back = (fun p -> Fs.read_whole_file (Fs.new_session fs) p);
    db = Some db;
    fs = Some fs;
    net = None;
    links = [];
    server = None;
  }

let ultrix_nfs probe =
  let clock = Clock.create () in
  let device =
    Pagestore.Device.create ~clock ~name:"rz58" ~kind:Pagestore.Device.Magnetic_disk ()
  in
  let ffs = Nfsbaseline.Ffs.create ~device ~cache_pages:2048 () in
  let presto = Nfsbaseline.Presto.create ~clock () in
  let server = Nfsbaseline.Nfs.make_server ~ffs ~presto () in
  let net = Netsim.create ~clock Netsim.udp_rpc_1993 in
  let client = Nfsbaseline.Nfs.connect ~server ~net in
  let call name f = Probe.call probe name f in
  let mk fh =
    {
      read =
        (fun ~off ~len ->
          call "read" (fun () ->
              let buf = Bytes.create len in
              let n = Nfsbaseline.Nfs.read client fh ~off ~buf ~len in
              Bytes.sub buf 0 n));
      write =
        (fun ~off data -> call "write" (fun () -> Nfsbaseline.Nfs.write client fh ~off ~data));
    }
  in
  let read_back p =
    let c = Nfsbaseline.Nfs.connect ~server ~net in
    match Nfsbaseline.Nfs.lookup c p with
    | None -> Bytes.empty
    | Some fh ->
      let size = Int64.to_int (Nfsbaseline.Nfs.getattr c fh) in
      let out = Bytes.create size in
      let off = ref 0 in
      while !off < size do
        let len = min Nfsbaseline.Nfs.max_transfer (size - !off) in
        let buf = Bytes.create len in
        let n = Nfsbaseline.Nfs.read c fh ~off:(Int64.of_int !off) ~buf ~len in
        Bytes.blit buf 0 out !off n;
        off := !off + max 1 n
      done;
      out
  in
  {
    kind = Nfs;
    clock;
    io_unit = Nfsbaseline.Nfs.max_transfer;
    create = (fun p -> call "create" (fun () -> mk (Nfsbaseline.Nfs.create client p)));
    (* "the NFS protocol makes every operation an atomic transaction" *)
    begin_batch = (fun () -> ());
    end_batch = (fun () -> ());
    flush = (fun () -> Nfsbaseline.Nfs.drop_caches server);
    read_back;
    db = None;
    fs = None;
    net = Some net;
    links = [];
    server = None;
  }

let build probe kind =
  (* the CPU model's scale is process-global: pin the paper's machine *)
  Relstore.Cpu_model.scale := 1.0;
  let s =
    match kind with
    | Cs -> client_server probe
    | Nfs -> ultrix_nfs probe
    | Sp -> single_process probe
  in
  Probe.set_clock probe s.clock;
  s

(* Mildly compressible, deterministic contents (as the repository's
   Table-3 run writes them). *)
let pattern len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr ((i * 31) land 0x7f))
  done;
  b

type op =
  | Create
  | Read_single
  | Read_seq
  | Read_rand
  | Write_single
  | Write_seq
  | Write_rand
  | Read_byte
  | Write_byte

let ops =
  [ Create; Read_single; Read_seq; Read_rand; Write_single; Write_seq; Write_rand; Read_byte; Write_byte ]

let op_key = function
  | Create -> "create"
  | Read_single -> "read_single"
  | Read_seq -> "read_seq"
  | Read_rand -> "read_rand"
  | Write_single -> "write_single"
  | Write_seq -> "write_seq"
  | Write_rand -> "write_rand"
  | Read_byte -> "read_byte"
  | Write_byte -> "write_byte"

type result = {
  cells : (op * float) list;  (** simulated seconds, as Table 3 reports them *)
  byte_ops : float list;  (** the 8 cold single-byte ops, simulated seconds *)
  byte_latency : Samples.t;  (** the extra cold single-byte trials *)
  mismatches : string list;
  user_bytes_written : int;
  user_bytes_read : int;
  write_host_s : float array;  (** host seconds per create chunk write *)
  write_minor_words : float array;  (** minor words per create chunk write *)
  model : bytes;  (** what the file must hold now *)
}

(* The paper's sequence, timed call by call.  [model] shadows every byte
   written, and every read is compared against it. *)
let run ~byte_trials ~seed sys =
  let rng = Rng.create seed in
  let file_bytes = file_mb * mb in
  let unit_size = sys.io_unit in
  let model = Bytes.make file_bytes '\000' in
  let mismatches = ref [] in
  let written = ref 0 and read = ref 0 in
  let time f =
    let t0 = Clock.now sys.clock in
    f ();
    Clock.now sys.clock -. t0
  in
  let write f ~off data =
    f.write ~off data;
    Bytes.blit data 0 model (Int64.to_int off) (Bytes.length data);
    written := !written + Bytes.length data
  in
  let check_read f ~off ~len =
    let got = f.read ~off ~len in
    read := !read + Bytes.length got;
    let o = Int64.to_int off in
    let expect = Bytes.sub model o (min len (file_bytes - o)) in
    if not (Bytes.equal got expect) && List.length !mismatches < 10 then
      mismatches :=
        Printf.sprintf "%s: read of %d bytes at %d differs from what was written"
          (kind_key sys.kind) len o
        :: !mismatches
  in
  let chunks = (file_bytes + unit_size - 1) / unit_size in
  let host = Array.make chunks 0. and words = Array.make chunks 0. in
  let file = ref None in
  (* Creation runs without a client transaction: each write commits on
     its own, as NFS's protocol forces anyway. *)
  let create_time =
    time (fun () ->
        let f = sys.create path in
        file := Some f;
        for i = 0 to chunks - 1 do
          let off = i * unit_size in
          let len = min unit_size (file_bytes - off) in
          let data = pattern len in
          let w0 = Gc.minor_words () and h0 = Unix.gettimeofday () in
          write f ~off:(Int64.of_int off) data;
          host.(i) <- Unix.gettimeofday () -. h0;
          words.(i) <- Gc.minor_words () -. w0
        done)
  in
  let f = Option.get !file in
  (* After a cache flush, touch the file once (untimed) so open-file
     metadata is warm, as it is for a file that is already open. *)
  let fresh () =
    sys.flush ();
    check_read f ~off:0L ~len:1;
    check_read f ~off:(Int64.of_int (13 * 8192)) ~len:1
  in
  let rand_off span align =
    let limit = (file_bytes - span) / align in
    Int64.of_int (Rng.int rng (max 1 limit) * align)
  in
  let trials = 4 in
  let byte_reads =
    List.init trials (fun _ ->
        fresh ();
        time (fun () -> check_read f ~off:(rand_off 1 1) ~len:1))
  in
  let byte_writes =
    List.init trials (fun _ ->
        fresh ();
        time (fun () ->
            sys.begin_batch ();
            write f ~off:(rand_off 1 1) (Bytes.make 1 'x');
            sys.end_batch ()))
  in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let read_single =
    fresh ();
    time (fun () -> check_read f ~off:0L ~len:mb)
  in
  let in_units g =
    let off = ref 0 in
    while !off < mb do
      let len = min unit_size (mb - !off) in
      g ~off:(Int64.of_int !off) ~len;
      off := !off + len
    done
  in
  let read_seq =
    fresh ();
    time (fun () -> in_units (fun ~off ~len -> check_read f ~off ~len))
  in
  let n_units = mb / unit_size in
  let read_rand =
    fresh ();
    time (fun () ->
        for _ = 1 to n_units do
          check_read f ~off:(rand_off unit_size unit_size) ~len:unit_size
        done)
  in
  let write_single =
    fresh ();
    let data = pattern mb in
    time (fun () ->
        sys.begin_batch ();
        write f ~off:0L data;
        sys.end_batch ())
  in
  let write_seq =
    fresh ();
    time (fun () ->
        sys.begin_batch ();
        in_units (fun ~off ~len -> write f ~off (pattern len));
        sys.end_batch ())
  in
  let write_rand =
    fresh ();
    time (fun () ->
        sys.begin_batch ();
        for _ = 1 to n_units do
          write f ~off:(rand_off unit_size unit_size) (pattern unit_size)
        done;
        sys.end_batch ())
  in
  (* Figure 4's measurement with enough trials for a latency
     distribution: cold single-byte ops at random places, two reads to
     every write, each after a cache flush.  They run after the paper's
     sequence, so its cells and random draws are unchanged. *)
  let byte_latency = Samples.create () in
  for i = 0 to byte_trials - 1 do
    fresh ();
    Samples.add byte_latency
      (time (fun () ->
           if i mod 3 = 2 then begin
             sys.begin_batch ();
             write f ~off:(rand_off 1 1) (Bytes.make 1 'y');
             sys.end_batch ()
           end
           else check_read f ~off:(rand_off 1 1) ~len:1))
  done;
  {
    cells =
      [
        (Create, create_time);
        (Read_single, read_single);
        (Read_seq, read_seq);
        (Read_rand, read_rand);
        (Write_single, write_single);
        (Write_seq, write_seq);
        (Write_rand, write_rand);
        (Read_byte, mean byte_reads);
        (Write_byte, mean byte_writes);
      ];
    byte_ops = byte_reads @ byte_writes;
    byte_latency;
    mismatches = List.rev !mismatches;
    user_bytes_written = !written;
    user_bytes_read = !read;
    write_host_s = host;
    write_minor_words = words;
    model;
  }

(* The created file, read back whole through a fresh session, must equal
   everything the benchmark wrote to it. *)
let verify_read_back sys r =
  let expect_bytes = r.model in
  let got = sys.read_back path in
  if Bytes.equal got expect_bytes then []
  else
    [
      Printf.sprintf "%s: %s read back through a fresh session (%d bytes) differs from what was written (%d bytes)"
        (kind_key sys.kind) path (Bytes.length got) (Bytes.length expect_bytes);
    ]
