(* Tests for the adversarial schedule explorer (Analysis.Explore +
   Analysis.Explorepasses) and the explicit-schedule plumbing in
   Dsim.Chaos:

   - acceptance: exploring the broken-cluster fixture's spec family
     synthesizes NG301 and NG302 witnesses whose minimized schedules,
     serialized to JSON, parsed back and replayed, reproduce the
     claimed failure byte-for-byte in the chaos JSON report;
   - schedule JSON round-trip: [schedule_of_json] ∘ [schedule_to_json]
     is the identity, structurally and at the byte level, over seeded
     random schedules;
   - soundness: over seeded explorer configs, every witness's claim
     holds in the confirming replay, in a fresh replay of the minimized
     schedule, and in a replay of the unminimized schedule — and the
     full diagnostic report is byte-identical at jobs 1 and 4;
   - Engine.assemble: cross-family ordering, dedup and severity
     filtering when all four analyzer families contribute. *)

module A = Analysis
module Ex = Analysis.Explore
module Xp = Analysis.Explorepasses
module Ns = Dsim.Nameserver
module Ch = Dsim.Chaos
module Rng = Dsim.Rng
module N = Naming.Name

let check = Alcotest.check
let b = Alcotest.bool
let i = Alcotest.int
let s = Alcotest.string

let report_json r =
  A.Json.to_string_pretty (A.Engine.to_json (Naming.Store.create ()) r)

(* The probes [Explore.run] replays with — the spec's directories and
   link paths, exactly as [namingctl chaos] derives them. *)
let probes_of (spec : Ns.spec) =
  spec.Ns.dirs @ List.map fst spec.Ns.links

(* ------------------------------------------------------------------ *)
(* Acceptance on the broken-cluster spec family.                       *)

let broken_config =
  {
    Ex.default with
    Ex.base = { Ex.default.Ex.base with Ch.replicas = 4 };
  }

(* The NG3xx codes the two fixture runs below trip between them, for
   the catalogue coverage check in test_analysis.ml. *)
let expected_codes = [ "NG301"; "NG302"; "NG303"; "NG304" ]

let test_acceptance () =
  let spec = Broken_cluster.spec in
  let outcome = Ex.run ~config:broken_config spec in
  let codes = List.map (fun w -> w.Ex.code) outcome.Ex.witnesses in
  check b "synthesizes an NG301 witness" true (List.mem "NG301" codes);
  check b "synthesizes an NG302 witness" true (List.mem "NG302" codes);
  check b "synthesizes an NG303 witness" true (List.mem "NG303" codes);
  let probes = probes_of spec in
  List.iter
    (fun (w : Ex.witness) ->
      (* the serialized minimized schedule parses back... *)
      let json = Ch.schedule_to_json w.Ex.schedule in
      let parsed =
        match Ch.schedule_of_json json with
        | Ok p -> p
        | Error m -> Alcotest.failf "%s witness schedule unparsable: %s"
                       w.Ex.code m
      in
      check s
        (w.Ex.code ^ " schedule re-renders byte-identically")
        json
        (Ch.schedule_to_json parsed);
      (* ...and its replay reproduces the stored one byte for byte *)
      let replayed = Ch.run_schedule ~spec ~probes parsed in
      check s
        (w.Ex.code ^ " replay reproduces the witness report byte-for-byte")
        (Ch.to_json ~scheme:"witness" w.Ex.replay)
        (Ch.to_json ~scheme:"witness" replayed);
      check b
        (w.Ex.code ^ " claim holds in replay")
        true
        (Ex.claim_holds w.Ex.claim replayed))
    outcome.Ex.witnesses;
  (* minimized witnesses are minimal in an obvious sense: no schedule
     needs more writes than the exploration found necessary *)
  List.iter
    (fun (w : Ex.witness) ->
      check b
        (w.Ex.code ^ " minimized no larger than unminimized")
        true
        (List.length w.Ex.schedule.Ch.writes
        <= List.length w.Ex.unminimized.Ch.writes))
    outcome.Ex.witnesses

let test_report_codes () =
  let subject = Xp.subject ~config:broken_config Broken_cluster.spec in
  let outcome, r = Xp.report ~label:"broken-cluster" subject in
  check b "report gates on errors" true (A.Engine.has_errors r);
  check i "one diagnostic per witness"
    (List.length outcome.Ex.witnesses)
    (List.length r.A.Engine.diagnostics);
  List.iter
    (fun d ->
      match
        List.find_opt
          (fun (c, _, _) -> String.equal c d.A.Diagnostic.code)
          A.Diagnostic.catalogue
      with
      | None ->
          Alcotest.failf "code %s not in the catalogue" d.A.Diagnostic.code
      | Some (_, sev, _) ->
          check b
            (d.A.Diagnostic.code ^ " severity matches catalogue")
            true
            (sev = d.A.Diagnostic.severity))
    r.A.Engine.diagnostics

(* Leader mode: the same spec family explored with the leader tier as
   the replay target. The statically-racing schedules (LWW claims)
   replay without losing an update — the loss frontier is discharged by
   its own replay — while genuine convergence defeats (a partition that
   never heals starving a follower) may survive as witnesses. *)
let test_leader_mode_discharges_losses () =
  let config =
    {
      broken_config with
      Ex.base = { broken_config.Ex.base with Ch.mode = `Leader_log };
    }
  in
  let spec = Broken_cluster.spec in
  let outcome = Ex.run ~config spec in
  let codes = List.map (fun w -> w.Ex.code) outcome.Ex.witnesses in
  check b "no NG301 loss witness survives the leader replay" false
    (List.mem "NG301" codes);
  List.iter
    (fun (w : Ex.witness) ->
      check b (w.Ex.code ^ " witness schedule carries leader mode") true
        (w.Ex.schedule.Ch.config.Ch.mode = `Leader_log);
      check b (w.Ex.code ^ " claim holds in the leader replay") true
        (Ex.claim_holds w.Ex.claim w.Ex.replay);
      check i (w.Ex.code ^ " replay observed zero lost updates") 0
        w.Ex.replay.Ch.ns.Ns.lww_losses)
    outcome.Ex.witnesses

(* A spec whose cluster accepts no write at all: the space is a single
   empty schedule, exhausted clean — the NG304 verdict. *)
let test_exhausted_clean () =
  let spec = { Ns.dirs = [ N.of_string "/a" ]; leaves = []; links = [] } in
  let outcome, r = Xp.report ~label:"clean" (Xp.subject spec) in
  check b "space exhausted" true outcome.Ex.stats.Ex.exhausted;
  check i "no witnesses" 0 (List.length outcome.Ex.witnesses);
  check b "no errors" false (A.Engine.has_errors r);
  match r.A.Engine.diagnostics with
  | [ d ] -> check s "NG304 verdict" "NG304" d.A.Diagnostic.code
  | ds -> Alcotest.failf "expected exactly NG304, got %d diagnostics"
            (List.length ds)

(* ------------------------------------------------------------------ *)
(* Schedule JSON round-trip.                                           *)

let roundtrip_spec =
  {
    Ns.dirs = [ N.of_string "/a"; N.of_string "/a/b" ];
    leaves = [ ("k1", "one"); ("k2", "two") ];
    links = [ (N.of_string "/a/x", "k1"); (N.of_string "/a/b/y", "k2") ];
  }

let schedule_of_seed seed =
  let rng = Rng.create (Int64.of_int ((seed * 6151) + 3)) in
  let nwrites = Rng.int rng 5 in
  let config =
    {
      Ch.default with
      Ch.seed;
      replicas = 2 + Rng.int rng 3;
      drop = Rng.float rng 0.3;
      duplicate = Rng.float rng 0.3;
      partition_at = Rng.float rng 20.0;
      partition_for = Rng.pick rng [ 0.0; Rng.float rng 50.0 ];
      crash_at = Rng.float rng 20.0;
      crash_for = Rng.pick rng [ 0.0; Rng.float rng 30.0 ];
      writes = nwrites;
      call_timeout = 0.5 +. Rng.float rng 3.0;
      ae_period = 0.5 +. Rng.float rng 3.0;
      duration = 40.0 +. Rng.float rng 40.0;
      dedup_window = (if Rng.bool rng 0.3 then Some (Rng.int rng 4) else None);
      mode = (if Rng.bool rng 0.5 then `Leader_log else `Lww_ae);
      leader_kill_at = Rng.float rng 30.0;
      leader_kill_for = Rng.pick rng [ 0.0; Rng.float rng 20.0 ];
      partition_leader = Rng.bool rng 0.3;
      txn_deadline = 5.0 +. Rng.float rng 30.0;
    }
  in
  let writes =
    List.init nwrites (fun _ ->
        let path, atom =
          Rng.pick rng
            [
              (N.of_string "/a", N.atom "x");
              (N.of_string "/a/b", N.atom "y");
              (N.of_string "/", N.atom "z");
            ]
        in
        let target =
          if Rng.bool rng 0.25 then None
          else Some (Rng.pick rng [ "k1"; "k2" ])
        in
        ( Rng.float rng config.Ch.write_window,
          Rng.int rng config.Ch.replicas,
          Ns.Write { path; atom; target } ))
  in
  { Ch.config; writes }

let prop_schedule_roundtrip =
  QCheck.Test.make ~name:"schedule_of_json ∘ schedule_to_json = id" ~count:200
    QCheck.small_nat (fun seed ->
      let sched = schedule_of_seed seed in
      let json = Ch.schedule_to_json sched in
      match Ch.schedule_of_json json with
      | Error m -> QCheck.Test.fail_reportf "seed %d: unparsable: %s" seed m
      | Ok parsed ->
          if parsed.Ch.config <> sched.Ch.config then
            QCheck.Test.fail_reportf "seed %d: config not preserved" seed;
          if Ch.schedule_to_json parsed <> json then
            QCheck.Test.fail_reportf "seed %d: re-render not byte-identical"
              seed;
          true)

(* A witness from before the leader tier: its config object stops at
   dedup_window. It must parse with [`Lww_ae] and the leader-fault
   defaults, so every archived witness file replays byte-for-byte. *)
let test_schedule_json_backward_compat () =
  let old_json =
    {|{
  "version": 1,
  "config": {"seed": 7, "replicas": 3, "drop": 0.05, "duplicate": 0.05, "partition_at": 10, "partition_for": 20, "crash_at": 15, "crash_for": 10, "writes": 2, "write_window": 30, "call_timeout": 2, "call_attempts": 6, "ae_period": 2, "ae_timeout": 2, "ae_attempts": 3, "sample_every": 2, "duration": 80, "dedup_window": null},
  "writes": [
    {"time": 1.5, "client": 0, "path": "/a", "atom": "x", "target": "k1"},
    {"time": 2.5, "client": 1, "path": "/a/b", "atom": "y", "target": null}]
}|}
  in
  match Ch.schedule_of_json old_json with
  | Error m -> Alcotest.failf "pre-leader witness rejected: %s" m
  | Ok s ->
      Alcotest.(check bool) "defaults to lww" true (s.Ch.config.Ch.mode = `Lww_ae);
      Alcotest.(check bool) "leader-kill disabled" true
        (s.Ch.config.Ch.leader_kill_for = 0.0);
      Alcotest.(check bool) "no leader partition" false
        s.Ch.config.Ch.partition_leader;
      Alcotest.(check bool) "default txn deadline" true
        (s.Ch.config.Ch.txn_deadline = Ch.default.Ch.txn_deadline);
      Alcotest.(check int) "writes preserved" 2 (List.length s.Ch.writes);
      (* and the re-render carries the new fields explicitly *)
      let json = Ch.schedule_to_json s in
      (match Ch.schedule_of_json json with
      | Ok s' ->
          Alcotest.(check bool) "re-render round-trips" true
            (s'.Ch.config = s.Ch.config)
      | Error m -> Alcotest.failf "re-render unparsable: %s" m)

let test_schedule_of_json_errors () =
  let reject what text =
    match Ch.schedule_of_json text with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error _ -> ()
  in
  reject "garbage" "nonsense";
  reject "bad version" {|{"version": 2, "config": {}, "writes": []}|};
  reject "missing config field"
    {|{"version": 1, "config": {"seed": 1}, "writes": []}|};
  let good = Ch.schedule_to_json (schedule_of_seed 1) in
  reject "trailing garbage" (good ^ "x");
  match Ch.schedule_of_json good with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "round-trip rejected: %s" m

(* ------------------------------------------------------------------ *)
(* Soundness over seeded explorer configs, at jobs 1 and 4.            *)

let explore_spec =
  {
    Ns.dirs = [ N.of_string "/a" ];
    leaves = [ ("k1", "one"); ("k2", "two") ];
    links = [ (N.of_string "/a/x", "k1") ];
  }

let explore_config_of_seed seed =
  let rng = Rng.create (Int64.of_int ((seed * 4099) + 29)) in
  {
    Ex.default with
    Ex.base =
      {
        Ex.default.Ex.base with
        Ch.seed;
        replicas = 2 + Rng.int rng 2;
        duration = 48.0;
      };
    depth = 1 + Rng.int rng 2;
    max_writes = 1 + Rng.int rng 2;
    budget = 120 + Rng.int rng 80;
    seed;
  }

let prop_witnesses_sound =
  QCheck.Test.make
    ~name:"explorer witnesses replay soundly; jobs 1 = jobs 4" ~count:60
    QCheck.small_nat (fun seed ->
      let config = explore_config_of_seed seed in
      let subject = Xp.subject ~config explore_spec in
      let outcome, r1 = Xp.report ~jobs:1 ~label:"sound" subject in
      let _, r4 = Xp.report ~jobs:4 ~label:"sound" subject in
      if report_json r1 <> report_json r4 then
        QCheck.Test.fail_reportf "seed %d: jobs 1 and jobs 4 reports differ"
          seed;
      let probes = probes_of explore_spec in
      List.iter
        (fun (w : Ex.witness) ->
          if not (Ex.claim_holds w.Ex.claim w.Ex.replay) then
            QCheck.Test.fail_reportf
              "seed %d: %s claim does not hold in its confirming replay" seed
              w.Ex.code;
          let fresh = Ch.run_schedule ~spec:explore_spec ~probes w.Ex.schedule in
          if
            Ch.to_json ~scheme:"w" fresh
            <> Ch.to_json ~scheme:"w" w.Ex.replay
          then
            QCheck.Test.fail_reportf
              "seed %d: %s minimized replay not reproducible byte-for-byte"
              seed w.Ex.code;
          let unmin =
            Ch.run_schedule ~spec:explore_spec ~probes w.Ex.unminimized
          in
          if not (Ex.claim_holds w.Ex.claim unmin) then
            QCheck.Test.fail_reportf
              "seed %d: %s claim lost by minimization (unminimized replay \
               does not exhibit it)"
              seed w.Ex.code)
        outcome.Ex.witnesses;
      true)

(* ------------------------------------------------------------------ *)
(* Engine.assemble across all four analyzer families.                  *)

let test_assemble_cross_family () =
  let d ?name ?loc code severity pass msg =
    A.Diagnostic.make ~code ~severity ~pass ?name ?loc msg
  in
  let open A.Diagnostic in
  let name = N.of_string "/a/x" in
  let diags =
    [
      d "NG304" Info "explore-space" "space exhausted";
      d ~name ~loc:1 "NG301" Error "explore-loss" "write lost";
      d "NG106" Info "flow-verdict" "undecided";
      d ~name "NG201" Error "cluster-races" "lww race";
      d ~name "NG003" Error "structure" "dangling binding";
      d ~name ~loc:1 "NG301" Error "explore-loss" "write lost";
      (* duplicate *)
      d "NG205" Warning "cluster-races" "stamp tie";
      d ~name "NG104" Warning "crosslinks" "fork divergence";
      d ~name ~loc:3 "NG303" Warning "explore-staleness" "stale window";
    ]
  in
  let r =
    A.Engine.assemble ~label:"all-families" ~activities:1 ~objects:1
      ~context_objects:1 ~probes:1
      ~passes_run:[ "structure"; "crosslinks"; "flow"; "cluster"; "explore" ]
      diags
  in
  (* the duplicate NG301 collapses; order is Diagnostic.compare *)
  check i "dedup leaves 8" 8 (List.length r.A.Engine.diagnostics);
  check Alcotest.(list string) "cross-family report order"
    [
      "NG003"; "NG201"; "NG301"; "NG104"; "NG205"; "NG303"; "NG106"; "NG304";
    ]
    (List.map (fun d -> d.A.Diagnostic.code) r.A.Engine.diagnostics);
  let sorted =
    List.for_all2
      (fun a b -> A.Diagnostic.compare a b <= 0)
      (List.filteri (fun k _ -> k < List.length r.A.Engine.diagnostics - 1)
         r.A.Engine.diagnostics)
      (List.tl r.A.Engine.diagnostics)
  in
  check b "sorted by Diagnostic.compare" true sorted;
  check i "errors counted unfiltered" 3 r.A.Engine.errors;
  check i "warnings counted unfiltered" 3 r.A.Engine.warnings;
  check i "infos counted unfiltered" 2 r.A.Engine.infos;
  (* the display filter hides below min severity; counters don't move *)
  let rw =
    A.Engine.assemble ~min_severity:A.Diagnostic.Warning ~label:"filtered"
      ~activities:1 ~objects:1 ~context_objects:1 ~probes:1
      ~passes_run:[ "x" ] diags
  in
  check i "filter drops infos from display" 6
    (List.length rw.A.Engine.diagnostics);
  check i "filtered infos still counted" 2 rw.A.Engine.infos;
  check b "exit policy sees unfiltered errors" true (A.Engine.has_errors rw)

(* ------------------------------------------------------------------ *)
(* Golden reports: [namingctl explore all --replicas 8 --mode M --json]
   over every sample scheme, rendered exactly as the CLI prints it and
   byte-compared against the files under test/golden/ (generated when
   arrivals were still relaxed per query, so they pin the arrival
   vectors to the definition).                                         *)

let read_golden name =
  let path =
    List.find_opt Sys.file_exists
      [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
    |> Option.value ~default:(Filename.concat "golden" name)
  in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let test_golden_r8 mode file () =
  let config =
    {
      Ex.default with
      Ex.base = { Ex.default.Ex.base with Ch.replicas = 8; mode };
    }
  in
  let targets =
    List.map
      (fun scheme ->
        let w = Option.get (Harness.Sample.world scheme) in
        let store = w.Harness.Sample.store in
        let spec = Ns.spec_of_context store w.Harness.Sample.ctx in
        (scheme, store, Xp.subject ~config spec))
      Harness.Sample.schemes
  in
  let reports =
    Xp.report_many (List.map (fun (label, _, subj) -> (label, subj)) targets)
  in
  let json =
    A.Json.to_string_pretty
      (A.Json.Obj
         [
           ( "schemes",
             A.Json.List
               (List.map2
                  (fun (_, store, _) (_, r) -> A.Engine.to_json store r)
                  targets reports) );
         ])
  in
  check s (file ^ " byte-identical") (read_golden file) (json ^ "\n")

let suite =
  [
    Alcotest.test_case "explorer acceptance on broken cluster" `Quick
      test_acceptance;
    Alcotest.test_case "explorer report codes" `Quick test_report_codes;
    Alcotest.test_case "leader mode discharges the loss frontier" `Quick
      test_leader_mode_discharges_losses;
    Alcotest.test_case "space exhausted clean (NG304)" `Quick
      test_exhausted_clean;
    Alcotest.test_case "schedule_of_json rejects malformed input" `Quick
      test_schedule_of_json_errors;
    Alcotest.test_case "pre-leader witness files still parse" `Quick
      test_schedule_json_backward_compat;
    Alcotest.test_case "assemble across four families" `Quick
      test_assemble_cross_family;
    Alcotest.test_case "golden report, 8 replicas, lww" `Quick
      (test_golden_r8 `Lww_ae "explore-r8-lww.json");
    Alcotest.test_case "golden report, 8 replicas, leader" `Quick
      (test_golden_r8 `Leader_log "explore-r8-leader.json");
    QCheck_alcotest.to_alcotest prop_schedule_roundtrip;
    QCheck_alcotest.to_alcotest prop_witnesses_sound;
  ]
