open Tsg

type cause =
  | Transition of int * Event.dir * int (* node, direction, occurrence *)
  | Initial_of of int (* input still at its initial value *)

type extraction = {
  graph : Tsg.Signal_graph.t;
  verdict : Distributive.verdict option;
  rounds_used : int;
  quiescent : bool;
}

exception Extraction_error of string

let error fmt = Fmt.kstr (fun msg -> raise (Extraction_error msg)) fmt

(* one simulated occurrence of a transition *)
type occurrence = { occ_dir : Event.dir; occ_round : int; occ_causes : cause list }

type sim = {
  (* per node: occurrences of both directions, oldest first *)
  history : occurrence list array;
  rounds_used : int;
  quiescent : bool;
}

let dir_of_value v = if v then Event.Rise else Event.Fall

(* maximal-step simulation with conjunctive-cause recording *)
let simulate ~rounds net =
  let n = Tsg_circuit.Netlist.node_count net in
  let values = Tsg_circuit.Netlist.initial_state net in
  let last_transition = Array.make n None in
  let history = Array.make n [] in
  let occ_count = Array.make n (0, 0) in
  let stimuli = Array.of_list (Tsg_circuit.Netlist.stimuli net) in
  let stim_pending = Array.make (Array.length stimuli) true in
  let is_input node =
    (Tsg_circuit.Netlist.node_of_index net node).Tsg_circuit.Netlist.gate
    = Tsg_circuit.Gate.Input
  in
  let record node dir round causes =
    let rises, falls = occ_count.(node) in
    let k, counts =
      match dir with
      | Event.Rise -> (rises, (rises + 1, falls))
      | Event.Fall -> (falls, (rises, falls + 1))
    in
    occ_count.(node) <- counts;
    history.(node) <- history.(node) @ [ { occ_dir = dir; occ_round = round; occ_causes = causes } ];
    last_transition.(node) <- Some (dir, k)
  in
  let quiescent = ref false in
  let round = ref 0 in
  while (not !quiescent) && !round < rounds do
    incr round;
    (* stimuli fire in the very first round *)
    let input_firings =
      if !round = 1 then begin
        let fired = ref [] in
        Array.iteri
          (fun si s ->
            if stim_pending.(si) then begin
              stim_pending.(si) <- false;
              fired :=
                ( Tsg_circuit.Netlist.index net s.Tsg_circuit.Netlist.stim_signal,
                  s.Tsg_circuit.Netlist.stim_value )
                :: !fired
            end)
          stimuli;
        List.rev !fired
      end
      else []
    in
    let gate_firings = ref [] in
    for node = 0 to n - 1 do
      if not (is_input node) then begin
        let target = Tsg_circuit.Netlist.eval_node net values node in
        if target <> values.(node) then begin
          if not (Distributive.conjunctive net values node) then
            error "node %s has a disjunctive (OR-causal) excitation: not distributive"
              (Tsg_circuit.Netlist.node_of_index net node).Tsg_circuit.Netlist.name;
          let necessary =
            match Distributive.necessary_inputs net values node with
            | Some l -> l
            | None -> assert false
          in
          let causes =
            List.map
              (fun d ->
                match last_transition.(d) with
                | Some (dir, k) -> Transition (d, dir, k)
                | None -> Initial_of d)
              necessary
          in
          gate_firings := (node, target, causes) :: !gate_firings
        end
      end
    done;
    let gate_firings = List.rev !gate_firings in
    if input_firings = [] && gate_firings = [] then quiescent := true
    else begin
      List.iter
        (fun (node, value) ->
          values.(node) <- value;
          record node (dir_of_value value) !round [])
        input_firings;
      List.iter
        (fun (node, target, causes) ->
          values.(node) <- target;
          record node (dir_of_value target) !round causes)
        gate_firings
    end
  done;
  { history; rounds_used = !round; quiescent = !quiescent }

(* occurrence index of an event within a node's history entry list *)
let indexed_occurrences history node dir =
  let _, result =
    List.fold_left
      (fun (k, acc) occ ->
        if occ.occ_dir = dir then (k + 1, (k, occ) :: acc) else (k, acc))
      (0, [])
      history.(node)
  in
  List.rev result

let extract ?(rounds = 60) ?(check = true) ?(max_states = 100_000) net =
  (* like Cycle_time.analyze, read the ambient per-thread deadline so
     daemon/batch budgets apply without plumbing *)
  let deadline = Tsg_engine.Deadline.current () in
  Tsg_obs.Trace.with_span "extract"
    ~args:[ ("nodes", string_of_int (Tsg_circuit.Netlist.node_count net)) ]
  @@ fun () ->
  let sim = Tsg_obs.Trace.with_span "extract/simulate" (fun () -> simulate ~rounds net) in
  Tsg_engine.Deadline.check deadline;
  let n = Tsg_circuit.Netlist.node_count net in
  let name_of node = (Tsg_circuit.Netlist.node_of_index net node).Tsg_circuit.Netlist.name in
  let is_input node =
    (Tsg_circuit.Netlist.node_of_index net node).Tsg_circuit.Netlist.gate
    = Tsg_circuit.Gate.Input
  in
  let last_round node =
    List.fold_left (fun acc occ -> max acc occ.occ_round) 0 sim.history.(node)
  in
  let repetitive node =
    (not sim.quiescent)
    && sim.history.(node) <> []
    && last_round node * 2 >= sim.rounds_used
  in
  (* every oscillating signal needs a stable pattern: at least two
     occurrences of each direction *)
  let b = Signal_graph.builder () in
  let declared = Hashtbl.create 32 in
  let declare node dir cls =
    let ev = Event.make (name_of node) dir 1 in
    if not (Hashtbl.mem declared ev) then begin
      Hashtbl.add declared ev ();
      Signal_graph.add_event b ev cls
    end;
    ev
  in
  (* declare all events first *)
  for node = 0 to n - 1 do
    if sim.history.(node) <> [] then
      if repetitive node then begin
        ignore (declare node Event.Rise Signal_graph.Repetitive);
        ignore (declare node Event.Fall Signal_graph.Repetitive)
      end
      else
        List.iter
          (fun occ ->
            let cls =
              if is_input node then Signal_graph.Initial else Signal_graph.Non_repetitive
            in
            ignore (declare node occ.occ_dir cls))
          sim.history.(node)
  done;
  let delay_of d node =
    try Tsg_circuit.Netlist.pin_delay net ~driver:d ~sink:node
    with Not_found -> error "no pin from %s to %s" (name_of d) (name_of node)
  in
  (* pattern of one occurrence: repetitive causes as (node, dir, offset) *)
  let pattern_of node k occ =
    List.filter_map
      (fun cause ->
        match cause with
        | Transition (d, dir, kd) when repetitive d ->
          let offset = k - kd in
          if offset < 0 || offset > 1 then
            error "event %s%s: occurrence offset %d is not initially-safe" (name_of node)
              (match occ.occ_dir with Event.Rise -> "+" | Event.Fall -> "-")
              offset;
          Some (d, dir, offset)
        | Transition _ | Initial_of _ -> None)
      occ.occ_causes
    |> List.sort compare
  in
  (* arcs of repetitive events, from their stabilised cause patterns *)
  for node = 0 to n - 1 do
    if repetitive node then
      List.iter
        (fun dir ->
          let occs = indexed_occurrences sim.history node dir in
          (match List.rev occs with
          | (k_last, o_last) :: (k_prev, o_prev) :: _ ->
            let p_last = pattern_of node k_last o_last
            and p_prev = pattern_of node k_prev o_prev in
            if p_last <> p_prev then
              error
                "event %s%s: cause pattern has not stabilised after %d rounds (try more)"
                (name_of node)
                (match dir with Event.Rise -> "+" | Event.Fall -> "-")
                sim.rounds_used;
            let ev = Event.make (name_of node) dir 1 in
            List.iter
              (fun (d, cdir, offset) ->
                Signal_graph.add_arc b ~marked:(offset = 1) ~delay:(delay_of d node)
                  (Event.make (name_of d) cdir 1)
                  ev)
              p_last
          | _ ->
            error "event %s%s: fewer than two occurrences after %d rounds (try more)"
              (name_of node)
              (match dir with Event.Rise -> "+" | Event.Fall -> "-")
              sim.rounds_used);
          (* transient causes from non-repetitive events become
             disengageable arcs on the first occurrence *)
          match occs with
          | (k0, o0) :: _ ->
            List.iter
              (fun cause ->
                match cause with
                | Transition (d, cdir, _) when not (repetitive d) ->
                  if k0 <> 0 then
                    error "transient cause of %s%s beyond the first occurrence"
                      (name_of node)
                      (match dir with Event.Rise -> "+" | Event.Fall -> "-");
                  Signal_graph.add_arc b ~disengageable:true ~delay:(delay_of d node)
                    (Event.make (name_of d) cdir 1)
                    (Event.make (name_of node) dir 1)
                | Transition _ | Initial_of _ -> ())
              o0.occ_causes
          | [] -> ())
        [ Event.Rise; Event.Fall ]
  done;
  (* arcs of non-repetitive events *)
  for node = 0 to n - 1 do
    if sim.history.(node) <> [] && not (repetitive node) then
      List.iter
        (fun occ ->
          List.iter
            (fun cause ->
              match cause with
              | Transition (d, cdir, _) ->
                if repetitive d then
                  error "non-repetitive event %s fed by oscillating signal %s"
                    (name_of node) (name_of d);
                Signal_graph.add_arc b ~delay:(delay_of d node)
                  (Event.make (name_of d) cdir 1)
                  (Event.make (name_of node) occ.occ_dir 1)
              | Initial_of _ -> ())
            occ.occ_causes)
        sim.history.(node)
  done;
  let graph =
    match Signal_graph.build b with
    | Ok g -> g
    | Error errs ->
      error "extracted graph fails validation: %a"
        Fmt.(list ~sep:(any "; ") Signal_graph.pp_error)
        errs
  in
  let verdict =
    if check then
      Some
        (Tsg_obs.Trace.with_span "extract/state_space" (fun () ->
             Distributive.check (State_graph.explore ~max_states net)))
    else None
  in
  (match verdict with
  | Some v when not v.Distributive.distributive ->
    error "the circuit is not distributive (%d semimodularity violations, %d OR-causal states)"
      (List.length v.Distributive.violations)
      (List.length v.Distributive.or_causal)
  | Some _ | None -> ());
  { graph; verdict; rounds_used = sim.rounds_used; quiescent = sim.quiescent }
