(* kept for fleetbench, which names [Tsg_io.Json]; everything else in the
   repo uses [Tsg_obs.Json] directly *)
include Tsg_obs.Json
