from hypothesis import settings

# a failing property test prints the blob that replays its example
settings.register_profile("cordeslab", print_blob=True)
settings.load_profile("cordeslab")
