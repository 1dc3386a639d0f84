(* The repository's benchmark: three workloads that drive the library's
   public functions from one seed, timing every call into a layer from
   outside that layer.

   - world: read-only measurement of one generated unixlike world —
     decode its codec dump, rebuild it, sweep it exactly, estimate it.
   - service: the replicated name service under the default chaos fault
     schedule, once per consistency tier.
   - explore: the adversarial schedule explorer and the cluster checker
     over every sample scheme, rendered as the JSON report.

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1

   Each workload is a closed loop of passes, one caller. Every pass runs
   in a child process forked from the set-up state, the way a user's
   command starts from its inputs: no pass inherits another's heap, and
   each pass's resident high-water mark is its own. Correctness checks
   run in the parent after the passes, outside the timed region.

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 it carries the per-layer metrics, from a run whose
   passes come in threes: untraced, traced, untraced. The lines before
   it report every metric by name, with unit and sample count. The exit
   code is nonzero when any correctness check failed. *)

let now = Unix.gettimeofday

(* Scratch files (the world dump, the span log), inside the checkout. *)
let work_dir = Filename.concat "perfbench" "_work"

(* The parallelism of the pool observations, capped to keep memory small. *)
let nproc = min 4 (Naming.Pool.available_parallelism ())

(* ---------- statistics ---------- *)

(* Linear interpolation between closest ranks. *)
let quantile q = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------- tracing ---------- *)

(* A span around one call into a layer. Spans stay in memory and are
   written out once, when the benchmark ends. [pass] is the run id: the
   pass the call belongs to, 0 for calls outside passes. *)
type span = {
  id : int;
  parent : int;  (** -1 at the top *)
  pass : int;
  layer : string;
  name : string;
  t0 : float;
  t1 : float;
  alloc_words : float;  (** Gc.quick_stat delta, children included *)
  majors : int;
}

let tracing = ref false
let current_pass = ref 0
let spans : span list ref = ref []
let next_id = ref 0
let open_span = ref (-1)

let alloc_words (s : Gc.stat) =
  s.minor_words +. s.major_words -. s.promoted_words

let span layer name f =
  if not !tracing then f ()
  else begin
    (* ids stay unique across passes run in different processes *)
    let id = (!current_pass * 1_000_000) + !next_id in
    incr next_id;
    let parent = !open_span in
    open_span := id;
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let close () =
      let t1 = now () in
      let g1 = Gc.quick_stat () in
      open_span := parent;
      spans :=
        {
          id;
          parent;
          pass = !current_pass;
          layer;
          name;
          t0;
          t1;
          alloc_words = alloc_words g1 -. alloc_words g0;
          majors = g1.major_collections - g0.major_collections;
        }
        :: !spans
    in
    Fun.protect ~finally:close f
  end

(* Self time, self allocation and self major collections per layer over
   the spans of one pass: a span's figures minus its children's. *)
let self_by_layer pass =
  let selected = List.filter (fun s -> s.pass = pass) !spans in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let t, a, mj =
        Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt children s.parent)
      in
      Hashtbl.replace children s.parent
        (t +. (s.t1 -. s.t0), a +. s.alloc_words, mj + s.majors))
    selected;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let ct, ca, cm =
        Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt children s.id)
      in
      let t, a, mj =
        Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt acc s.layer)
      in
      Hashtbl.replace acc s.layer
        ( t +. (s.t1 -. s.t0 -. ct),
          a +. (s.alloc_words -. ca),
          mj + (s.majors - cm) ))
    selected;
  acc

let write_spans path =
  let oc = open_out_bin path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"run\":%d,\"layer\":%S,\"name\":%S,\
         \"start\":%.6f,\"end\":%.6f,\"alloc_words\":%.0f,\"majors\":%d}\n"
        s.id s.parent s.pass s.layer s.name s.t0 s.t1 s.alloc_words s.majors)
    (List.rev !spans);
  close_out oc

(* ---------- failure accounting ---------- *)

(* Operations attempted and failed. A failed correctness check counts
   as a failed operation. *)
let attempted = ref 0
let failed = ref 0

let check label ok =
  if not ok then begin
    incr failed;
    Printf.eprintf "check failed: %s\n%!" label
  end

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let m name unit_ samples value = { name; value; unit_; samples }

(* ---------- passes in child processes ---------- *)

(* Resident high-water mark of this process, from /proc. A forked child's
   mark starts at its resident size at the fork. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" Fun.id
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan /. 1024.0

type 'a outcome = {
  value : ('a, string) result;
  wall : float;  (** the call's wall time, measured in the child *)
  rss_mb : float;  (** the child's resident high-water mark *)
  child_spans : span list;
}

(* Runs [f] in a forked child and returns its result, marshalled back
   through a pipe. The result must not hold names: atoms are interned
   per process. Forking needs a single domain, so every parallel call
   comes after the last child. *)
let in_child ~traced ~pass f =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      spans := [];
      tracing := traced;
      current_pass := pass;
      Gc.full_major ();
      let value, wall =
        timed (fun () ->
            match span "bench" "pass" f with
            | v -> Ok v
            | exception e -> Error (Printexc.to_string e))
      in
      let out = { value; wall; rss_mb = peak_rss_mb (); child_spans = !spans } in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc out [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let out =
        match (Marshal.from_channel ic : _ outcome) with
        | o -> o
        | exception (End_of_file | Failure _) ->
            { value = Error "child exited early"; wall = nan; rss_mb = nan; child_spans = [] }
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      spans := out.child_spans @ !spans;
      out

type 'a pass = { n : int; traced : bool; wall : float; rss_mb : float; value : 'a }

(* Times [reps] runs of the set-up [f] in a child process, so that none
   leaves garbage behind in this one, whose resident size every pass
   inherits. Each run is timed on its own; after the first, they find
   their names interned and their heap mapped, so the figure is the
   set-up's own compute rather than the kernel's. *)
let setup_times ~reps f =
  let o =
    in_child ~traced:false ~pass:0 (fun () ->
        List.init reps (fun _ -> snd (timed (fun () -> ignore (f ())))))
  in
  match o.value with Ok ts -> ts | Error e -> failwith ("set-up: " ^ e)

(* The closed loop shared by every workload: passes run back to back
   until [seconds] have elapsed and at least [min_passes] were tried.
   [f i] runs one pass on input [i]. Before each pass, [setup_reps]
   set-ups are timed: the machine runs in phases of tens of seconds,
   up to 1.8x faster or slower, so set-ups timed all at once would read
   one phase, while spread over the run they read the same mixture as
   the passes. Their time is not counted in [seconds]. In traced mode
   passes come in threes on one input — untraced, traced, untraced —
   and at least three threes run, so that a traced pass compares with
   the untraced passes on either side of it: same input, and the
   machine's drift averaged out. A pass that raised is reported and left out; the caller counts
   its operations as failed. *)
let loop ~trace ~seconds ~min_passes ~setup ~setup_reps f =
  let start = now () in
  let tried = ref 0 and ok = ref [] and setup_s = ref [] and in_setup = ref 0.0 in
  let enough () =
    now () -. start -. !in_setup >= float_of_int seconds
    && if trace then !tried >= 9 && !tried mod 3 = 0 else !tried >= min_passes
  in
  while not (enough ()) do
    let ts, dt = timed (fun () -> setup_times ~reps:setup_reps setup) in
    setup_s := ts @ !setup_s;
    in_setup := !in_setup +. dt;
    incr tried;
    let n = !tried in
    let traced = trace && n mod 3 = 2 in
    let input = if trace then (n + 2) / 3 else n in
    let o = in_child ~traced ~pass:n (fun () -> f input) in
    Printf.eprintf "pass %d%s: %.3fs, %.1f MB\n%!" n
      (if traced then " (traced)" else "")
      o.wall o.rss_mb;
    match o.value with
    | Ok value -> ok := { n; traced; wall = o.wall; rss_mb = o.rss_mb; value } :: !ok
    | Error e -> Printf.eprintf "pass %d failed: %s\n%!" n e
  done;
  if !ok = [] then begin
    prerr_endline "no pass completed";
    exit 1
  end;
  let ts = !setup_s in
  Printf.eprintf "set-up: %d timed, median %.6fs, min %.6fs, max %.6fs\n%!"
    (List.length ts) (median ts) (quantile 0.0 ts) (quantile 1.0 ts);
  (!tried, List.rev !ok, ts)

let untraced passes = List.filter (fun p -> not p.traced) passes
let traced passes = List.filter (fun p -> p.traced) passes

(* The end-to-end figures every workload shares. *)
let common ~setup_s passes =
  let u = untraced passes in
  [
    m "setup_s" "s" (List.length setup_s) (median setup_s);
    m "pass_s" "s" (List.length u) (median (List.map (fun p -> p.wall) u));
    m "peak_rss_mb" "MB" (List.length u) (median (List.map (fun p -> p.rss_mb) u));
  ]

(* Per-layer self times over the traced passes and the tracing
   overhead. The "bench" layer is the glue between layer calls and is
   left out of the layers' sum. Two checks: the spans cover each traced
   pass (the layers' sum is within 10% of it), and the breakdown sums to
   the whole (the median, over the threes, of the layers' sum in the
   traced pass over the mean of the two untraced passes is within
   [self_sum_tolerance] of 1). On a shared machine that median reads
   0.86–1.17 from run to run, so the tolerance is wide enough that the
   machine alone does not fail a run; the figure itself is reported as
   trace.self_sum_ratio. *)
let layers = [ "codec"; "coherence"; "nameserver"; "analysis"; "report" ]
let self_sum_tolerance = 0.25

let trace_metrics passes =
  let t = traced passes in
  let k = List.length t in
  let per_pass = List.map (fun p -> (p, self_by_layer p.n)) t in
  let time (s, _, _) = s and alloc (_, a, _) = a *. float_of_int (Sys.word_size / 8) /. 1e6 in
  let layer_of self l f = match Hashtbl.find_opt self l with Some x -> f x | None -> 0.0 in
  let layer_median l f = median (List.map (fun (_, self) -> layer_of self l f) per_pass) in
  let share l =
    median (List.map (fun (p, self) -> layer_of self l time /. p.wall) per_pass)
  in
  let total f =
    median (List.map (fun (_, self) -> Hashtbl.fold (fun _ x acc -> acc +. f x) self 0.0) per_pass)
  in
  let layer_sum self = sum (List.map (fun l -> layer_of self l time) layers) in
  List.iter
    (fun (p, self) ->
      check
        (Printf.sprintf "pass %d: layer spans cover %.3fs of a %.3fs pass" p.n
           (layer_sum self) p.wall)
        (Float.abs ((layer_sum self /. p.wall) -. 1.0) <= 0.10))
    per_pass;
  (* the untraced passes on either side of a traced one, same input *)
  let pairs =
    List.filter_map
      (fun (p, self) ->
        let wall n = List.find_opt (fun q -> q.n = n) passes |> Option.map (fun q -> q.wall) in
        match (wall (p.n - 1), wall (p.n + 1)) with
        | Some a, Some b ->
            let u = (a +. b) /. 2.0 in
            Some (p.wall /. u, layer_sum self /. u)
        | _ -> None)
      per_pass
  in
  let ratio = median (List.map snd pairs) in
  check
    (Printf.sprintf "layer self times sum to %.3f of the untraced pass (median of %d threes)"
       ratio (List.length pairs))
    (Float.abs (ratio -. 1.0) <= self_sum_tolerance);
  List.concat_map
    (fun l ->
      [
        m (l ^ ".self_s") "s" k (layer_median l time);
        m (l ^ ".self_share") "ratio" k (share l);
        m ("gc." ^ l ^ ".alloc_mb") "MB" k (layer_median l alloc);
      ])
    layers
  @ [
      m "bench.self_s" "s" k (layer_median "bench" time);
      m "bench.self_share" "ratio" k (share "bench");
      m "gc.alloc_mb" "MB" k (total alloc);
      m "gc.major_collections" "count" k (total (fun (_, _, mj) -> float_of_int mj));
      m "trace.overhead" "ratio" (List.length pairs) (median (List.map fst pairs) -. 1.0);
      m "trace.self_sum_ratio" "ratio" (List.length pairs) ratio;
      m "trace.spans" "count" k (float_of_int (List.length !spans));
    ]

(* ---------- world ---------- *)

let world_size = 300_000
(* set-ups timed before each pass; the world's takes seconds *)
let world_setup_reps = 1
let estimates_per_pass = 40

let estimate_seed seed i = Int64.of_int ((seed * 1_000_003) + i)

(* Estimates are compared bit for bit, so render every float exactly. *)
let estimate_bits (e : Naming.Coherence.estimate) =
  Printf.sprintf "%h %h %h %h %d" e.degree e.strict_degree e.ci_low e.ci_high
    e.samples

(* the default [epsilon] of [Coherence.estimate] *)
let converged (e : Naming.Coherence.estimate) = (e.ci_high -. e.ci_low) /. 2.0 <= 0.01

let verdict_string v = Format.asprintf "%a" Naming.Coherence.pp_verdict v

type world_pass = {
  load_s : float;
  sweep_s : float;
  report : Naming.Coherence.report;
  estimates : (Naming.Coherence.estimate * float) list;
}

let load_world dump =
  let store =
    span "codec" "decode" (fun () ->
        let ic = open_in_bin dump in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Naming.Codec.decode_from_channel ic))
  in
  match store with
  | Error e -> failwith (Printf.sprintf "decode: line %d: %s" e.line e.message)
  | Ok store -> (
      match span "codec" "of_store" (fun () -> Harness.Worldgen.of_store store) with
      | None -> failwith "of_store: no measurable world"
      | Some w -> w)

let world ~seed ~seconds ~trace =
  let dump = Filename.concat work_dir (Printf.sprintf "world-%d.dump" seed) in
  let setup () =
    let w = Harness.Worldgen.build `Unixlike ~size:world_size ~seed:(Int64.of_int seed) in
    let oc = open_out_bin dump in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Naming.Codec.encode_to_channel w.store oc)
  in
  let pass _ =
    let w, load_s = timed (fun () -> load_world dump) in
    let occs = List.map Naming.Occurrence.generated w.activities in
    let report, sweep_s =
      timed (fun () ->
          span "coherence" "sweep" (fun () ->
              Naming.Coherence.measure_seq ~jobs:1 w.store w.rule occs
                (Harness.Worldgen.probes_seq w)))
    in
    let sampler = Harness.Worldgen.sampler w in
    let estimates =
      List.init estimates_per_pass (fun i ->
          let rng = Dsim.Rng.create (estimate_seed seed i) in
          timed (fun () ->
              span "coherence" "estimate" (fun () ->
                  Naming.Coherence.estimate ~jobs:1 ~rng w.store w.rule occs sampler)))
    in
    { load_s; sweep_s; report; estimates }
  in
  let tried, passes, setup_s =
    loop ~trace ~seconds ~min_passes:3 ~setup ~setup_reps:world_setup_reps pass
  in
  let dump_bytes = float_of_int (Unix.stat dump).st_size in
  (* operations: one sweep and the estimates per pass *)
  attempted := tried * (1 + estimates_per_pass);
  failed := (tried - List.length passes) * (1 + estimates_per_pass);
  (* The oracle: an interpreted engine, swept sequentially, over the
     world decoded once more in this process. *)
  let w = load_world dump in
  let occs = List.map Naming.Occurrence.generated w.activities in
  let interpreted = Naming.Engine.create `Interpreted w.store in
  let probes = Array.of_seq (Harness.Worldgen.probes_seq w) in
  let oracle =
    Naming.Coherence.measure ~engine:interpreted ~jobs:1 w.store w.rule occs
      (Array.to_list probes)
  in
  let first = List.map (fun (e, _) -> estimate_bits e) (List.hd passes).value.estimates in
  List.iter
    (fun p ->
      check (Printf.sprintf "pass %d: sweep report equals the interpreted oracle's" p.n)
        (p.value.report = oracle);
      List.iter2
        (fun (e, _) bits ->
          check (Printf.sprintf "pass %d: estimate converged and repeated" p.n)
            (converged e && String.equal (estimate_bits e) bits))
        p.value.estimates first)
    passes;
  let rng = Dsim.Rng.create (Int64.of_int seed) in
  let subsample =
    List.init 2000 (fun _ -> probes.(Dsim.Rng.int rng (Array.length probes)))
  in
  let verdicts engine jobs =
    List.map
      (fun (_, v) -> verdict_string v)
      (Naming.Coherence.classify ?engine ~jobs w.store w.rule occs subsample)
  in
  check "subsample verdicts of the default engine equal the interpreted engine's"
    (verdicts None nproc = verdicts (Some interpreted) 1);
  let sampler = Harness.Worldgen.sampler w in
  let estimate_at jobs =
    estimate_bits
      (Naming.Coherence.estimate ~jobs ~rng:(Dsim.Rng.create (estimate_seed seed 0))
         w.store w.rule occs sampler)
  in
  check "estimate is identical at jobs 1 and jobs nproc" (estimate_at 1 = estimate_at nproc);
  Sys.remove dump;
  let u = List.map (fun p -> p.value) (untraced passes) in
  let n_probes = float_of_int oracle.probes in
  let sweep_s = median (List.map (fun v -> v.sweep_s) u) in
  let est_ms = List.concat_map (fun v -> List.map (fun (_, t) -> 1000.0 *. t) v.estimates) u in
  let e2e =
    common ~setup_s passes
    @ [
        m "load_s" "s" (List.length u) (median (List.map (fun v -> v.load_s) u));
        m "sweep_probes_per_s" "probes/s" (List.length u) (n_probes /. sweep_s);
        m "estimate_ms_p50" "ms" (List.length est_ms) (median est_ms);
        m "estimate_ms_p90" "ms" (List.length est_ms) (quantile 0.9 est_ms);
      ]
  in
  let layer () =
    (* the decode/of_store split comes from the traced passes' spans *)
    let of_kind name =
      List.filter_map
        (fun (s : span) -> if s.name = name && s.pass > 0 then Some (s.t1 -. s.t0) else None)
        !spans
    in
    let decode_s = median (of_kind "decode") in
    let est_samples =
      List.concat_map
        (fun v -> List.map (fun ((e : Naming.Coherence.estimate), _) -> float_of_int e.samples) v.estimates)
        u
    in
    (* Sensitivity observations, outside the passes: the pool and the
       engines the library exposes, on the same world. *)
    tracing := true;
    let par_sweep, par_s =
      timed (fun () ->
          span "coherence" "sweep_nproc" (fun () ->
              Naming.Coherence.measure_seq ~jobs:nproc w.store w.rule occs
                (Harness.Worldgen.probes_seq w)))
    in
    check "jobs nproc sweep equals the oracle" (par_sweep = oracle);
    let compiled, compile_s =
      timed (fun () ->
          span "engine" "compile" (fun () -> Naming.Engine.create `Compiled w.store))
    in
    let shard_ms =
      median
        (List.init 3 (fun _ ->
             1000.0
             *. snd
                  (timed (fun () ->
                       span "engine" "shard" (fun () ->
                           Naming.Engine.prepare compiled;
                           ignore (Naming.Engine.shard compiled))))))
    in
    let compiled_sweep, compiled_s =
      timed (fun () ->
          span "coherence" "sweep_compiled" (fun () ->
              Naming.Coherence.measure_seq ~engine:compiled ~jobs:1 w.store w.rule
                occs (Harness.Worldgen.probes_seq w)))
    in
    check "compiled sweep equals the oracle" (compiled_sweep = oracle);
    (* resolve cost per call over a fixed seeded (activity, probe) sample *)
    let ctxs = Array.of_list (List.filter_map (Naming.Rule.select w.rule w.store) occs) in
    let pairs =
      Array.init 20_000 (fun _ ->
          ( ctxs.(Dsim.Rng.int rng (Array.length ctxs)),
            probes.(Dsim.Rng.int rng (Array.length probes)) ))
    in
    let resolve_ns engine =
      let out = Array.make (Array.length pairs) Naming.Entity.undefined in
      let (), dt =
        timed (fun () ->
            span "engine" "resolve" (fun () ->
                Array.iteri
                  (fun i (ctx, n) -> out.(i) <- Naming.Engine.resolve engine ctx n)
                  pairs))
      in
      (out, dt *. 1e9 /. float_of_int (Array.length pairs))
    in
    let r_int, int_ns = resolve_ns interpreted in
    let r_cmp, cmp_ns = resolve_ns compiled in
    check "compiled resolutions equal interpreted ones" (r_int = r_cmp);
    tracing := false;
    let rate = n_probes /. compiled_s and default_rate = n_probes /. sweep_s in
    Printf.printf "sensitivity: compiled engine at jobs 1 sweeps %.0f probes/s, the default %.0f\n"
      rate default_rate;
    check "compiled sweep at jobs 1 is faster than the default" (rate > default_rate);
    [
      m "codec.decode_s" "s" (List.length (of_kind "decode")) decode_s;
      m "codec.decode_mb_per_s" "MB/s" (List.length (of_kind "decode"))
        (dump_bytes /. 1e6 /. decode_s);
      m "worldgen.of_store_s" "s" (List.length (of_kind "of_store"))
        (median (of_kind "of_store"));
      m "engine.interpreted_resolve_ns" "ns" (Array.length pairs) int_ns;
      m "engine.compiled_resolve_ns" "ns" (Array.length pairs) cmp_ns;
      m "engine.compiled_speedup" "ratio" (Array.length pairs) (int_ns /. cmp_ns);
      m "engine.compile_s" "s" 1 compile_s;
      m "engine.shard_ms" "ms" 3 shard_ms;
      m "engine.shard_over_sweep" "ratio" 1 (shard_ms /. 1000.0 /. compiled_s);
      m "coherence.sweep_s" "s" (List.length u) sweep_s;
      m "coherence.resolutions" "count" 1 (n_probes *. float_of_int (List.length occs));
      m "coherence.estimate_samples" "count" (List.length est_samples) (median est_samples);
      m "pool.speedup" "ratio" 1 (sweep_s /. par_s);
      m "compiled_sweep_probes_per_s" "probes/s" 1 rate;
    ]
  in
  (e2e, passes, layer)

(* ---------- service ---------- *)

let service_world_size = 20_000
let service_setup_reps = 5
let service_writes = 4_000
let service_window = 380.0
let service_duration = 440.0

let tiers : (string * Dsim.Nameserver.mode) list =
  [ ("lww", `Lww_ae); ("leader", `Leader_log) ]

(* Pass [n] runs the chaos schedule of sub-seed [n - 1]. About one seed
   in seven leads the leader tier into a slow mode (many transactions
   left undecided, up to twice the pass time and memory), so one
   schedule per run would make the run's cost bimodal in the seed; a
   schedule per pass, over enough passes, summarised by the median
   pass, keeps every run's figure representative. The write stream ends
   60 sim s before the run does: both tiers reconverge within 10-30 sim
   s of its end. *)
let chaos_seed seed n = (seed * 1_000_003) + n - 1

type tier_run = { tier : string; result : Dsim.Chaos.result; json : string; run_s : float }

let service ~seed ~seconds ~trace =
  let setup () =
    let w =
      Harness.Worldgen.build `Unixlike ~size:service_world_size ~seed:(Int64.of_int seed)
    in
    let spec = Dsim.Nameserver.spec_of_context w.store w.ctx in
    (spec, spec.dirs @ List.map fst spec.links)
  in
  let spec, probes = setup () in
  let config n mode =
    {
      Dsim.Chaos.default with
      seed = chaos_seed seed n;
      writes = service_writes;
      write_window = service_window;
      duration = service_duration;
      mode;
    }
  in
  let chaos n (tier, mode) =
    let (result, json), run_s =
      timed (fun () ->
          let r =
            span "nameserver" (tier ^ ".run") (fun () ->
                Dsim.Chaos.run ~jobs:1 ~config:(config n mode) ~spec ~probes ())
          in
          (r, span "report" (tier ^ ".to_json") (fun () -> Dsim.Chaos.to_json ~scheme:"unixlike" r)))
    in
    { tier; result; json; run_s }
  in
  let tried, passes, setup_s =
    loop ~trace ~seconds ~min_passes:3 ~setup ~setup_reps:service_setup_reps (fun n ->
        List.map (chaos n) tiers)
  in
  (* operations: one chaos run per tier per pass *)
  attempted := tried * List.length tiers;
  failed := (tried - List.length passes) * List.length tiers;
  List.iter
    (fun p ->
      List.iter
        (fun t ->
          check (Printf.sprintf "pass %d: %s run converged" p.n t.tier) t.result.converged;
          if t.result.config.mode = `Leader_log then
            check (Printf.sprintf "pass %d: leader lost no write" p.n)
              (t.result.ns.lww_losses = 0))
        p.value)
    passes;
  (* pass 1's schedule again must render the same report, byte for byte;
     its figures are the simulated-time ones reported, so they repeat
     exactly for one seed *)
  let first = match passes with p :: _ when p.n = 1 -> p.value | _ -> [] in
  if first <> [] then
    List.iter2
      (fun t tier ->
        check (t.tier ^ " report repeats for one seed") (String.equal (chaos 1 tier).json t.json))
      first tiers;
  let run_times tier =
    List.concat_map
      (fun p -> List.filter_map (fun t -> if t.tier = tier then Some t.run_s else None) p.value)
      (untraced passes)
  in
  let e2e =
    common ~setup_s passes
    @ List.concat_map
        (fun t ->
          let r = t.result in
          let times = run_times t.tier in
          [
            m (t.tier ^ ".run_s") "s" (List.length times) (median times);
            m (t.tier ^ ".availability") "ratio" 1
              (float_of_int r.writes_acked /. float_of_int r.writes_sent);
            m (t.tier ^ ".latency_mean_sim_s") "sim_s" 1 r.latency_mean;
            m (t.tier ^ ".reconverge_sim_s") "sim_s" 1
              (match r.converge_time with Some c -> c -. r.heal_at | None -> nan);
          ])
        first
  in
  let layer () =
    List.concat_map
      (fun t ->
        let r = t.result in
        let writes = float_of_int r.writes_sent in
        (* pass 1's schedule, run here alternately as it is and with no
           sampling instant inside the run, without the report *)
        let normal = config 1 r.config.mode in
        let quiet = { normal with sample_every = service_duration +. 1.0 } in
        let run_s config =
          snd (timed (fun () -> ignore (Dsim.Chaos.run ~jobs:1 ~config ~spec ~probes ())))
        in
        let normal_s, quiet_s =
          List.split (List.init 3 (fun _ -> (run_s normal, run_s quiet)))
        in
        let rpc = r.client_rpc and srv = r.server_rpc in
        let c name unit_ v = m (t.tier ^ "." ^ name) unit_ 1 v in
        [
          c "sim.events" "count" (float_of_int r.events);
          c "sim.events_per_s" "1/s" (float_of_int r.events /. t.run_s);
          c "net.msgs_per_write" "ratio" (float_of_int r.net.sent /. writes);
          c "rpc.retries_per_write" "ratio" (float_of_int (rpc.retries + srv.retries) /. writes);
          c "rpc.timeouts" "count" (float_of_int (rpc.timeouts + srv.timeouts));
          c "rpc.dedup_hits" "count" (float_of_int (rpc.dedup_hits + srv.dedup_hits));
          c "rpc.late_replies" "count" (float_of_int (rpc.late_replies + srv.late_replies));
          c "ns.ops_applied" "count" (float_of_int r.ns.ops_applied);
          c "ns.pulls" "count" (float_of_int r.ns.pulls);
          c "ns.pull_failures" "count" (float_of_int r.ns.pull_failures);
          c "ns.elections" "count" (float_of_int r.ns.elections);
          c "ns.lww_losses" "count" (float_of_int r.ns.lww_losses);
          c "ns.txns_unknown" "count" (float_of_int r.txns_unknown);
          m (t.tier ^ ".chaos.sampling_share") "ratio" 3 (1.0 -. (median quiet_s /. median normal_s));
          c "report.bytes" "bytes" (float_of_int (String.length t.json));
        ])
      first
  in
  (e2e, passes, layer)

(* ---------- explore ---------- *)

let explore_replicas = [ 5; 8 ]
let explore_setup_reps = 51

type target = {
  label : string;
  replicas : int;
  store : Naming.Store.t;
  explore : Analysis.Explorepasses.subject;
  cluster : Analysis.Replpasses.subject;
}

type target_run = {
  codes : string list;  (** witness codes, in order *)
  claims_hold : bool;  (** every witness replay shows its claim *)
  stats : Analysis.Explore.stats;
  explore_s : float;
}

type explore_pass = {
  runs : target_run list;  (** in target order *)
  check_cluster_s : float;
  emit_s : float;
  bytes : int;
}

let explore ~seed ~seconds ~trace =
  let setup () =
    List.concat_map
      (fun scheme ->
        let w = Option.get (Harness.Sample.world scheme) in
        let spec = Dsim.Nameserver.spec_of_context w.store w.ctx in
        List.concat_map
          (fun replicas ->
            List.map
              (fun (tier, mode) ->
                let base = { Dsim.Chaos.default with seed; replicas; mode } in
                let config =
                  {
                    Analysis.Explore.default with
                    base = { Analysis.Explore.default.base with replicas; mode };
                    seed;
                  }
                in
                {
                  label = Printf.sprintf "%s/r%d/%s" scheme replicas tier;
                  replicas;
                  store = w.store;
                  explore = Analysis.Explorepasses.subject ~config spec;
                  cluster = Analysis.Replpasses.subject base spec;
                })
              tiers)
          explore_replicas)
      Harness.Sample.schemes
  in
  let targets = setup () in
  let pass _ =
    let runs, reports =
      List.split
        (List.map
           (fun t ->
             let (outcome, report), explore_s =
               timed (fun () ->
                   span "analysis" "explore" (fun () ->
                       Analysis.Explorepasses.report ~jobs:1 ~label:t.label t.explore))
             in
             let witnesses = outcome.Analysis.Explore.witnesses in
             ( {
                 codes = List.map (fun (w : Analysis.Explore.witness) -> w.code) witnesses;
                 claims_hold =
                   List.for_all
                     (fun (w : Analysis.Explore.witness) ->
                       Analysis.Explore.claim_holds w.claim w.replay)
                     witnesses;
                 stats = outcome.stats;
                 explore_s;
               },
               (t.store, report) ))
           targets)
    in
    let checked, check_cluster_s =
      timed (fun () ->
          span "analysis" "check_cluster" (fun () ->
              Analysis.Replpasses.report_many ~jobs:1
                (List.map (fun t -> (t.label, t.cluster)) targets)))
    in
    (* the documents namingctl explore --json and check-cluster --json print *)
    let json, emit_s =
      timed (fun () ->
          span "report" "emit" (fun () ->
              let doc reports =
                Analysis.Json.to_string_pretty
                  (Analysis.Json.Obj
                     [
                       ( "schemes",
                         Analysis.Json.List
                           (List.map (fun (s, r) -> Analysis.Engine.to_json s r) reports) );
                     ])
              in
              doc reports ^ doc (List.map2 (fun t (_, r) -> (t.store, r)) targets checked)))
    in
    { runs; check_cluster_s; emit_s; bytes = String.length json }
  in
  let tried, passes, setup_s =
    loop ~trace ~seconds ~min_passes:2 ~setup ~setup_reps:explore_setup_reps pass
  in
  (* operations: one (scheme, replicas, tier) target per pass *)
  let n_targets = List.length targets in
  attempted := tried * n_targets;
  failed := (tried - List.length passes) * n_targets;
  let first = match passes with p :: _ -> p.value.runs | [] -> [] in
  List.iter
    (fun p ->
      List.iter2
        (fun (t, r) r0 ->
          check (Printf.sprintf "pass %d: %s witnesses replay and repeat" p.n t.label)
            (r.claims_hold && r.codes = r0.codes))
        (List.combine targets p.value.runs)
        first)
    passes;
  let u = List.map (fun p -> p.value) (untraced passes) in
  let e2e = common ~setup_s passes in
  (* a pass is the time to every verdict, report included *)
  let e2e = e2e @ [ { (List.find (fun x -> x.name = "pass_s") e2e) with name = "explore_s" } ] in
  let layer () =
    let all_runs = List.concat_map (fun v -> v.runs) u in
    let per_pass f =
      median
        (List.map (fun v -> float_of_int (List.fold_left (fun a r -> a + f r.stats) 0 v.runs)) u)
    in
    let wall replicas =
      sum
        (List.concat_map
           (fun v ->
             List.filter_map
               (fun (t, r) -> if t.replicas = replicas then Some r.explore_s else None)
               (List.combine targets v.runs))
           u)
    in
    let interpreted = sum (List.map (fun r -> float_of_int r.stats.interpreted) all_runs) in
    let explore_wall = sum (List.map (fun r -> r.explore_s) all_runs) in
    let k = List.length u in
    [
      m "explore.enumerated" "count" k (per_pass (fun s -> s.enumerated));
      m "explore.interpreted" "count" k (per_pass (fun s -> s.interpreted));
      m "explore.pruned_por" "count" k (per_pass (fun s -> s.pruned_por));
      m "explore.pruned_symmetry" "count" k (per_pass (fun s -> s.pruned_symmetry));
      m "explore.replays" "count" k (per_pass (fun s -> s.replays));
      m "explore.interpretations_per_s" "1/s" k (interpreted /. explore_wall);
      m "explore.r8_over_r5" "ratio" k (wall 8 /. wall 5);
      m "analysis.check_cluster_s" "s" k (median (List.map (fun v -> v.check_cluster_s) u));
      m "report.emit_ms" "ms" k (1000.0 *. median (List.map (fun v -> v.emit_s) u));
      m "report.bytes" "bytes" k (median (List.map (fun v -> float_of_int v.bytes) u));
    ]
  in
  (e2e, passes, layer)

(* ---------- the metric lists and the result line ---------- *)

(* Every run reports every end-to-end metric. *)
let end_to_end = [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("pass_s", "s") ]

(* Every traced run reports every per-layer metric; a layer a workload
   does not exercise reports 0. The list holds the figures for which 0
   means "no work here" — counts, rates, ratios and shares of a pass;
   layer times, which read 0 on every run of a workload that does not
   call the layer, are printed above the result line instead. *)
let per_layer =
  [
    ("codec.decode_mb_per_s", "MB/s"); ("engine.compiled_speedup", "ratio");
    ("engine.shard_over_sweep", "ratio"); ("coherence.resolutions", "count");
    ("coherence.estimate_samples", "count"); ("sweep_probes_per_s", "probes/s");
    ("compiled_sweep_probes_per_s", "probes/s"); ("pool.speedup", "ratio");
  ]
  @ List.concat_map
      (fun (tier, _) ->
        List.map
          (fun (n, u) -> (tier ^ "." ^ n, u))
          [
            ("availability", "ratio"); ("sim.events", "count");
            ("sim.events_per_s", "1/s"); ("net.msgs_per_write", "ratio");
            ("rpc.retries_per_write", "ratio"); ("rpc.timeouts", "count");
            ("rpc.dedup_hits", "count"); ("rpc.late_replies", "count");
            ("ns.ops_applied", "count"); ("ns.pulls", "count");
            ("ns.pull_failures", "count"); ("ns.elections", "count");
            ("ns.lww_losses", "count"); ("ns.txns_unknown", "count");
            ("chaos.sampling_share", "ratio"); ("report.bytes", "bytes");
          ])
      tiers
  @ [
      ("explore.enumerated", "count"); ("explore.interpreted", "count");
      ("explore.pruned_por", "count"); ("explore.pruned_symmetry", "count");
      ("explore.replays", "count"); ("explore.interpretations_per_s", "1/s");
      ("explore.r8_over_r5", "ratio"); ("report.bytes", "bytes");
    ]
  @ List.concat_map
      (fun l -> [ (l ^ ".self_share", "ratio"); ("gc." ^ l ^ ".alloc_mb", "MB") ])
      layers
  @ [
      ("bench.self_share", "ratio"); ("gc.alloc_mb", "MB");
      ("gc.major_collections", "count"); ("trace.overhead", "ratio");
      ("trace.self_sum_ratio", "ratio"); ("trace.spans", "count");
    ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line names metrics =
  let find n = List.find_opt (fun x -> x.name = n) metrics in
  let entries =
    List.map
      (fun (n, unit_) ->
        let value = match find n with Some x -> x.value | None -> 0.0 in
        let value = if Float.is_finite value then value else 0.0 in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number value) unit_)
      names
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) !attempted !failed (String.concat ", " entries)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "world|service|explore");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "world" -> world
    | "service" -> service
    | "explore" -> explore
    | w ->
        Printf.eprintf "unknown workload %S (expected world, service or explore)\n" w;
        exit 2
  in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let trace = !trace = 1 in
  let e2e, passes, layer = run ~seed:!seed ~seconds:!seconds ~trace in
  let metrics = if trace then layer () @ trace_metrics passes @ e2e else e2e in
  List.iter
    (fun x -> Printf.printf "%-36s %16.6g %-9s n=%d\n" x.name x.value x.unit_ x.samples)
    metrics;
  if trace then
    write_spans (Filename.concat work_dir (Printf.sprintf "%s-%d.spans.jsonl" !workload !seed));
  Printf.printf "attempted=%d failed=%d\n" !attempted !failed;
  print_endline (result_line (if trace then per_layer else end_to_end) metrics);
  exit (if !failed = 0 then 0 else 1)
