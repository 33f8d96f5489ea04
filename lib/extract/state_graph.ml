type state = { values : bool array; stim_done : bool array }

type t = {
  netlist : Tsg_circuit.Netlist.t;
  states : state array;
  transitions : int Tsg_graph.Digraph.t;
  initial : int;
}

exception State_limit of int

let key_of_state s =
  let n = Array.length s.values and k = Array.length s.stim_done in
  let bytes = Bytes.create (n + k) in
  Array.iteri (fun i v -> Bytes.set bytes i (if v then '1' else '0')) s.values;
  Array.iteri (fun i v -> Bytes.set bytes (n + i) (if v then '1' else '0')) s.stim_done;
  Bytes.unsafe_to_string bytes

let stimulus_index net =
  List.mapi (fun i s -> (i, Tsg_circuit.Netlist.index net s.Tsg_circuit.Netlist.stim_signal)) (Tsg_circuit.Netlist.stimuli net)

let excited net s =
  let stim = stimulus_index net in
  let pending_input node =
    List.exists (fun (si, ni) -> ni = node && not s.stim_done.(si)) stim
  in
  let result = ref [] in
  for node = Tsg_circuit.Netlist.node_count net - 1 downto 0 do
    let is_input = (Tsg_circuit.Netlist.node_of_index net node).Tsg_circuit.Netlist.gate = Tsg_circuit.Gate.Input in
    let fires =
      if is_input then pending_input node
      else Tsg_circuit.Netlist.eval_node net s.values node <> s.values.(node)
    in
    if fires then result := node :: !result
  done;
  !result

let fire net s node =
  let values = Array.copy s.values in
  let stim_done = Array.copy s.stim_done in
  let is_input = (Tsg_circuit.Netlist.node_of_index net node).Tsg_circuit.Netlist.gate = Tsg_circuit.Gate.Input in
  if is_input then begin
    match
      List.find_opt
        (fun (si, ni) -> ni = node && not s.stim_done.(si))
        (stimulus_index net)
    with
    | Some (si, _) ->
      let stimulus = List.nth (Tsg_circuit.Netlist.stimuli net) si in
      values.(node) <- stimulus.Tsg_circuit.Netlist.stim_value;
      stim_done.(si) <- true
    | None -> invalid_arg "State_graph.fire: input without pending stimulus"
  end
  else values.(node) <- Tsg_circuit.Netlist.eval_node net s.values node;
  { values; stim_done }

let explore ?(max_states = 100_000) net =
  let deadline = Tsg_engine.Deadline.current () in
  let initial_state =
    {
      values = Tsg_circuit.Netlist.initial_state net;
      stim_done = Array.make (List.length (Tsg_circuit.Netlist.stimuli net)) false;
    }
  in
  let ids = Hashtbl.create 1024 in
  let states = ref [] in
  let count = ref 0 in
  let transitions = Tsg_graph.Digraph.create () in
  let intern s =
    let key = key_of_state s in
    match Hashtbl.find_opt ids key with
    | Some id -> (id, false)
    | None ->
      if !count >= max_states then raise (State_limit max_states);
      let id = Tsg_graph.Digraph.add_vertex transitions in
      Hashtbl.add ids key id;
      states := s :: !states;
      incr count;
      (id, true)
  in
  let initial, _ = intern initial_state in
  let queue = Queue.create () in
  Queue.add (initial, initial_state) queue;
  (* exponential state spaces are exactly what deadlines are for:
     check once per popped batch so a blown-up exploration cancels
     promptly without taxing the per-state work *)
  let popped = ref 0 in
  while not (Queue.is_empty queue) do
    incr popped;
    if !popped land 1023 = 0 then Tsg_engine.Deadline.check deadline;
    let id, s = Queue.pop queue in
    List.iter
      (fun node ->
        let s' = fire net s node in
        let id', fresh = intern s' in
        Tsg_graph.Digraph.add_arc transitions ~src:id ~dst:id' node;
        if fresh then Queue.add (id', s') queue)
      (excited net s)
  done;
  let states = Array.of_list (List.rev !states) in
  { netlist = net; states; transitions; initial }

let state_count t = Array.length t.states
