open Tsg

(* Golden wire bytes.  The MD5 of every response below was recorded
   from the digraph-based unfolding build; any construction of the
   unfolding must reproduce it.  CSR slice order decides longest-path
   tie-breaking, and so the critical cycles and traces in a report:
   a change in construction order shows up here as a changed digest,
   even where the cycle time stays the same. *)

let md5 s = Digest.to_hex (Digest.string s)
let benchmarks_dir = try Sys.getenv "BENCHMARKS" with Not_found -> "../benchmarks"

let analyze_bytes ~model g =
  match Cycle_time.analyze g with
  | report -> Tsg_io.Rpc.analyze_response ~model g report
  | exception Cycle_time.Not_analyzable msg -> Tsg_io.Rpc.error_response msg

let segmented () =
  Tsg_circuit.Generators.segmented_live_tsg ~seed:3 ~events:300 ~tokens:5 ~extra_arcs:450 ()

(* the sweep reply with its one volatile member (elapsed_ms) pinned *)
let sweep_bytes ~model g scenarios =
  let base = Whatif.prepare g in
  let change = function
    | Tsg_engine.Protocol.Sw_delay { sw_arc; sw_delta } ->
      Whatif.Delay { Whatif.arc = sw_arc; delta = sw_delta }
    | Sw_add { sw_src = Ev_id src; sw_dst = Ev_id dst; sw_delay; sw_marked } ->
      Whatif.Add_arc { src; dst; delay = sw_delay; marked = sw_marked }
    | Sw_add _ -> invalid_arg "golden sweeps name events by id"
    | Sw_remove a -> Whatif.Remove_arc a
    | Sw_mark { sw_arc; sw_marked } -> Whatif.Set_marked { arc = sw_arc; marked = sw_marked }
  in
  let items =
    List.map
      (fun edits ->
        let outcome =
          match Whatif.reanalyze_changes base (List.map change edits) with
          | r -> Ok r
          | exception Invalid_argument msg -> Error msg
          | exception Cycle_time.Not_analyzable msg -> Error msg
        in
        { Tsg_io.Rpc.edits; elapsed_ms = 0.; outcome })
      scenarios
  in
  Tsg_io.Rpc.sweep_response ~model g items

let delay arc delta = Tsg_engine.Protocol.Sw_delay { sw_arc = arc; sw_delta = delta }

let add ?(marked = false) src dst d =
  Tsg_engine.Protocol.Sw_add
    { sw_src = Ev_id src; sw_dst = Ev_id dst; sw_delay = d; sw_marked = marked }

let golden =
  let file f () =
    match Tsg_io.Loader.load_file (Filename.concat benchmarks_dir f) with
    | Ok m -> analyze_bytes ~model:m.Tsg_io.Loader.name m.Tsg_io.Loader.graph
    | Error msg -> Tsg_io.Rpc.error_response msg
  in
  [
    ("fifo2.g", file "fifo2.g", "f6c557e485a7ae2224e663b4a9036593");
    ("fig1.g", file "fig1.g", "a6b091a12aa011e8c96dcb7536b954db");
    ("fork_join.g", file "fork_join.g", "5ab9239e81d2260d96b5b41ef5379c0f");
    ("petrify_ring.g", file "petrify_ring.g", "3f70b7eadc937460bec2feec064fcc5b");
    ("project.g", file "project.g", "9b367dbc50095102b7bea290439ee4b9");
    ("ring5.g", file "ring5.g", "ad64dffc09d26fcc4a72a91735c22ec8");
    ("stack66.g", file "stack66.g", "abcf4b7382ae99fd915298ba5f613bf1");
    ("two_token_ring.g", file "two_token_ring.g", "87361d03fce8a4c63edc877f0516c84a");
    ( "gen-dense",
      (fun () ->
        analyze_bytes ~model:"gen-dense"
          (Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 ())),
      "f8888ae3a08da5965473fc19c4a5aeb7" );
    ( "segmented",
      (fun () -> analyze_bytes ~model:"segmented" (segmented ())),
      "ebe6784205ee29ccf09f80ee24d8d083" );
    ( "random",
      (fun () ->
        analyze_bytes ~model:"random"
          (Tsg_circuit.Generators.random_live_tsg ~seed:5 ~max_delay:4 ~events:40
             ~extra_arcs:60 ())),
      "bf86fedd5f907b6a0c182e6f06115cd3" );
    ( "muller-ring",
      (fun () ->
        analyze_bytes ~model:"muller-ring"
          (Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:8 ~high_stages:[ 2; 6 ]
             ~delays:(fun ~sink ~driver ->
               float_of_int ((((7 * Char.code sink.[0]) + Char.code driver.[0]) mod 5) + 1))
             ())),
      "c31243f3cbf0fcf1d629be4af337c24b" );
    ( "fig1",
      (fun () -> analyze_bytes ~model:"fig1" (Tsg_circuit.Circuit_library.fig1_tsg ())),
      "a6b091a12aa011e8c96dcb7536b954db" );
    ( "fig1 structural sweep",
      (fun () ->
        sweep_bytes ~model:"fig1" (Tsg_circuit.Circuit_library.fig1_tsg ())
          [
            [ delay 0 1.5 ];
            [ Sw_remove 2 ];
            [ add 0 3 2.0 ];
            [ Sw_mark { sw_arc = 9; sw_marked = false } ];
          ]),
      "d9dae111a4b2065f7f68e8fe64b66020" );
    ( "segmented structural sweep",
      (fun () ->
        sweep_bytes ~model:"segmented" (segmented ())
          [
            [ delay 40 2.5; Sw_remove 320 ];
            [ add 10 50 7.0 ];
            [ add 100 20 3.0 ];
            [ Sw_remove 400; add 100 140 3.0; delay 5 0.5 ];
            [ add ~marked:true 200 20 1.0 ];
          ]),
      "d05dc246fc8c0e2dee7fd4b49fa60b13" );
    (* fleetbench's dense sweep base shape: b = 79 of 100 events, so
       each report carries 79 x 79 samples, many of them non-integral
       after the delay and marking edits (a 1 MiB reply).  The digest
       was recorded with the printf-based float writer, so it pins
       that spelling *)
    ( "dense sweep",
      (fun () ->
        sweep_bytes ~model:"dense"
          (Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:100 ~extra_arcs:200 ())
          [
            [ delay 17 1.5 ];
            [ add ~marked:true 42 4 3.0 ];
            [ Sw_remove 153 ];
            [ Sw_mark { sw_arc = 3; sw_marked = true } ];
          ]),
      "87b369f57ebb6b2bef907aa18cd86a78" );
  ]

let suite =
  List.map
    (fun (name, bytes, digest) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check string) (name ^ ": response MD5") digest (md5 (bytes ()))))
    golden
