# Checks the bytes `btpub export` wrote into DIR: torrents.csv and
# sightings.csv must have the pinned SHA-256s.
#
#   cmake -DDIR=out_dir -DTORRENTS_SHA256=<hex> -DSIGHTINGS_SHA256=<hex>
#         -P check_export.cmake
foreach(name torrents sightings)
  string(TOUPPER "${name}" var)
  set(want "${${var}_SHA256}")
  file(SHA256 "${DIR}/${name}.csv" got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${DIR}/${name}.csv: sha256 ${got}, expected ${want}")
  endif()
  message(STATUS "${name}.csv sha256 ${got} OK")
endforeach()
